"""Byte identity of the tiling, boundary and spectral CLI outputs.

The tiling digests were recorded from the per-tile implementation before
the tiling core moved to numpy columns; any change to the bytes of
``generate``, ``stats`` or ``render`` shows up here.  The boundary CSVs
were recorded from the materialized-word implementation, before the
til2 and til13 rows came from balanced-pair certificates.  The spectral
digests were recorded from numpy's companion-matrix roots, before the
pure-Python root solver.
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

SPECTRAL = {
    "--pq 1/1":
        "3f74b585d21a28d51eace42c8656f951eb464689b59d1c75133a1aed93f06288",
    "--pq 1/2":
        "2f7c12e7279bd425f3bcef81ca29864cb323828fb02ba95c79dc519884084eca",
    "--pq 1/3":
        "1a9dd00e130383f6109de36ce4a641566635942fb50ce29dd4c2ab393de89bfd",
    "--pq 1/4":
        "02ae70de7f08d615e8555ace86ea685cee9c11a66e49b4eb14ef0ff027c2bb9b",
    "--pq 1/5":
        "7ea60197a6194bfb29307ae81b9473240c166357d8262439fe1b67a8281ffbc5",
    "--pq 1/6":
        "493cc8e2d2d888a539ff8b63a5d5fb3f5c8f345beaecfdfee1d36f68e53a9247",
    "--pq 2/1":
        "81d85d8533952271d2bca3ea2dde2e17671831e239ead5acad5e95bf6d6e82cc",
    "--pq 2/3":
        "5121148ffa3ce52a9fe64c5ca74a1f58920e568fda091bb5e417e8da78698450",
    "--pq 2/5":
        "5ab593d190b9d7c0417cb2444e08f591729794719b16213d35f7ca24ea41ac82",
    "--pq 3/1":
        "2360fd795fb6fd265bda457275ea51cd9ae398fbfa0b0af9761150389314fa14",
    "--pq 3/2":
        "8502bd4a4fe647da41818d53d214a1d1d49a260aa6ae672c7dcdc7eae6a7aef9",
    "--pq 3/4":
        "0f66bc27dec3f4d5500c6d54f485712652407a9ae73edaa2ef3634982abe7622",
    "--pq 3/5":
        "50dfcea018ea5695c8b81f155b6b5cb15eae03469db45c7bf2d9f8cc8622bb90",
    "--pq 4/1":
        "11a38365170483403778505169ef919ef15f076c8467793d5c47b702a2325836",
    "--pq 4/3":
        "2170c01a69099fc9c95a6cc50c67ac7d4e5b7e209b6cbcf041a3467e27809bfc",
    "--pq 4/5":
        "997829c02718373a095d5d458b9a63bdb0c5359a44e6ce0226fd0d8a88424e7d",
    "--pq 5/1":
        "bce735482cad2fe077ce7e090da1e469b20e3d2c207ff094bb38306904ea6340",
    "--pq 5/2":
        "a0150a41b3b464f7360c210332f4bca30d7939c38e51307560c5ccbff94617cd",
    "--pq 5/3":
        "ffc7efca08965a01e081f5c18eece67f04f5ee9c68d0ebd5479e66bd53404eb3",
    "--pq 5/4":
        "0bd8c4e8d13f98095641dea93d9ab6a4a02ae35de86398e1106f717a5fdb4367",
    "--pq 5/6":
        "1aed01950af884b1cd0e0ada92cad4c590f74efc9c7d0150a9bfa90ce31d93cf",
    "--pq 6/1":
        "d6de0432cb1943e6db9cd936880bcff40510b17f13731decb4e5ac701cb967b1",
    "--pq 6/5":
        "601e9596f6c47956654d0e1d5d37e696c1ce9e40f50770a4a96f676ae4c89da4",
    "--theta 1.0":
        "a0daf3dd5adf2d76e22b702b67708e9cbd21d16d71045c06291bf2b843c4cc31",
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



@pytest.mark.parametrize("argv", sorted(SPECTRAL))
def test_spectral_bytes(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(["spectral", *argv.split(), "--out", str(out)]) == 0
    assert _digest(out) == SPECTRAL[argv]

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
