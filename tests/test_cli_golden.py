"""Byte identity of the tiling and boundary CLI outputs.

The tiling digests were recorded from the per-tile implementation before
the tiling core moved to numpy columns; any change to the bytes of
``generate``, ``stats`` or ``render`` shows up here.  The boundary CSVs
were recorded from the materialized-word implementation, before the
til2 and til13 rows came from balanced-pair certificates.
"""

import hashlib

import pytest

from tilelab.cli import main

GENERATE = {
    "pq12": (["--pq", "1/2", "--n", "8"],
             "363681fd19ab5c94787f828972f08bc8e684872eaed0b9131d7843d382f36cf9"),
    "th1": (["--theta", "1.0", "--n", "30"],
            "2b474fcaf6a8841ea9ba4378cfdc3c8ad32648aba9c8adeb9d80376a8921907a"),
    "pq11": (["--pq", "1/1", "--n", "3"],
             "aca66b0dd1a0f016f22bebb05d450caddafc921446f65ac77e604b9150b21c82"),
}

DERIVED = {
    ("pq12", "stats"):
        "fceabdfc3f1ef281c457c1100b113895f18573043801ee902df7bc5dcecdce15",
    ("pq12", "stats --csv --weighting count"):
        "83b6153d58d842b463b2028d02b376645dd793dd0c9c563611bfdfb9389c2149",
    ("pq12", "render --faults"):
        "c2797da236cef671ae33e4542de17ea8fc970ad81da8e6be20e0cc60650e2b47",
    ("pq12", "render --color phi"):
        "99b45930a3e3abf07f118e1045a059e4afe057830984c953e7a42e2ac7a27f21",
    ("pq11", "render --faults"):
        "bab94a59cdb4c597a21e3b2655ef42f88aa7990099cb37f4b1f9ad4b342ae853",
    ("pq11", "render --color phi"):
        "7456cfadb772bf8f317233e7827b2f155f58ebcd5108fe40540814c8ba254a7d",
    ("th1", "stats"):
        "a5898026284770936277f37f8850819842695a168eefd23563339afa7c02532e",
    ("th1", "stats --csv --weighting count"):
        "19114e2580ec7c22ef977deedd5bc3b2aa9a0108e85520bdf0fa16b1b71aa4ba",
    ("th1", "render --faults"):
        "daf0bde8a9d79987cb6bc867dabb28fcdb4d26eadb00e33249a4cbd712745a2b",
    ("th1", "render --color phi"):
        "0ecf3afc8f8121dbd3d5b967dd1670cfb4cb807e50fd05265a26d63a0420d646",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, (argv, _) in GENERATE.items():
        paths[name] = root / f"{name}.json"
        assert main(["generate", *argv, "--out", str(paths[name])]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_bytes(generated, name):
    assert _digest(generated[name]) == GENERATE[name][1]


@pytest.mark.parametrize("name,command", sorted(DERIVED))
def test_derived_bytes(generated, tmp_path, name, command):
    out = tmp_path / "out"
    sub, *flags = command.split()
    assert main([sub, "--in", str(generated[name]), *flags, "--out", str(out)]) == 0
    assert _digest(out) == DERIVED[(name, command)]


BOUNDARY_TIL2_11 = """n,max_abs_f,offsets
""" + "".join(f"{n},1,2\n" for n in range(1, 12))

BOUNDARY_TIL13_18 = """n,fluctuation,offsets
1,-1,2
2,-1,2
3,3,2
4,-1,2
5,-5,2
6,7,2
7,3,2
8,-17,2
9,11,2
10,23,2
11,-45,2
12,-1,2
13,91,2
14,-89,2
15,-93,2
16,271,2
17,-85,2
18,-457,2
"""

BOUNDARY_TIL12_12_SHA256 = \
    "27528dc1c237e99311df4da301a878ff63cd4b3a16c71627bfe180d4f7e23c8e"


@pytest.mark.parametrize("system,n,expected", [
    ("til2", 11, BOUNDARY_TIL2_11),
    ("til13", 18, BOUNDARY_TIL13_18),
], ids=["til2", "til13"])
def test_boundary_csv(capsys, system, n, expected):
    assert main(["boundary", "--system", system, "--n", str(n)]) == 0
    assert capsys.readouterr().out == expected


def test_boundary_til12_bytes(capsys):
    assert main(["boundary", "--system", "til12", "--n", "12"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BOUNDARY_TIL12_12_SHA256
