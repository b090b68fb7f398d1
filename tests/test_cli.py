import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilelab import boundary
from tilelab.cli import main
from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.substitution import Tiling, build_Tn, tiling_json_chunks


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_generate_writes_tiling_json(tmp_path, capsys):
    path = tmp_path / "t2.json"
    rc, out, err = _run(capsys, ["generate", "--pq", "1/2", "--n", "2",
                                 "--out", str(path)])
    assert rc == 0 and err == ""
    data = json.loads(path.read_text())
    assert data["generation"] == 2
    assert len(data["tiles"]) == 9


def test_generate_to_stdout(capsys):
    rc, out, _ = _run(capsys, ["generate", "--pq", "1/1", "--n", "1"])
    assert rc == 0
    assert len(json.loads(out)["tiles"]) == 5


def test_generate_pinwheel_three_deep(capsys):
    rc, out, _ = _run(capsys, ["generate", "--pq", "1/1", "--n", "3"])
    assert rc == 0
    assert len(json.loads(out)["tiles"]) == 125


def test_generate_irrational_root_only(capsys):
    rc, out, _ = _run(capsys, ["generate", "--theta", "0.785398163", "--n", "0"])
    assert rc == 0
    assert len(json.loads(out)["tiles"]) == 1


def test_classify_til13(capsys):
    rc, out, _ = _run(capsys, ["classify", "--pq", "1/3"])
    assert rc == 0
    data = json.loads(out)
    assert data["size_count_predicted"] == 3
    assert data["orientation_count_predicted"] == "finite"
    assert data["is_exceptional_13"] is True


def test_classify_irrational_with_assertion(capsys):
    rc, out, _ = _run(capsys, ["classify", "--theta", "1.0",
                               "--theta-pi", "irrational"])
    assert rc == 0
    data = json.loads(out)
    assert data["size_count_predicted"] == "infinite"
    assert data["orientation_count_predicted"] == "infinite"


def test_classify_rational_theta_declaration(capsys):
    rc, out, _ = _run(capsys, ["classify", "--pq", "1/3",
                               "--theta-pi", "1/4"])
    assert rc == 0
    assert json.loads(out)["theta_over_pi_rational"] is True
    # a declaration that contradicts the shape is a usage error
    assert main(["classify", "--pq", "1/2", "--theta-pi", "1/4"]) == 2
    assert main(["classify", "--pq", "1/3", "--theta-pi", "bogus"]) == 2
    capsys.readouterr()
    # a fraction past the float range is refused by value, not by float()
    rc, _, err = _run(capsys, ["classify", "--pq", "1/3",
                               "--theta-pi", "1" + "0" * 400 + "/1"])
    assert rc == 2 and "is not (1000" in err and "Traceback" not in err


def test_classify_far_pq_ratios(capsys):
    # theta = 2**-30 lies below 1e-9; a root below the smallest normal
    # float is a domain error
    rc, out, _ = _run(capsys, ["classify", "--pq", "30/1"])
    assert rc == 0 and json.loads(out)["size_count_predicted"] == 30
    rc, out, err = _run(capsys, ["classify", "--pq", "1100/1"])
    assert rc == 2 and out == "" and "smallest normal float" in err
    rc, out, err = _run(capsys, ["classify", "--pq", f"3/{10 ** 400}"])
    assert rc == 2 and out == "" and "float range" in err


def test_spectral_til12(capsys):
    rc, out, _ = _run(capsys, ["spectral", "--pq", "1/2"])
    assert rc == 0
    data = json.loads(out)
    reals = sorted(re_part for re_part, _ in data["eigenvalues"])
    assert reals == pytest.approx([-1.5616, 2.5616], abs=1e-3)
    assert max(reals) == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, rel=1e-9)
    assert data["count_outside_unit"] == 2


def test_spectral_tied_modulus(capsys):
    # the roots near 2 and -2 tie in float modulus; the leading one is 2
    rc, out, err = _run(capsys, ["spectral", "--pq", "53/2"])
    assert rc == 0, err
    data = json.loads(out)
    assert data["leading"] == 2.0 and data["count_outside_unit"] == 2


def test_spectral_irrational(capsys):
    rc, out, _ = _run(capsys, ["spectral", "--theta", "1.0"])
    assert rc == 0
    data = json.loads(out)
    assert data["real_eigenvalue"] == 2.0
    assert data["lower_bound"] < 2.0


def test_boundary_til12_csv(capsys):
    rc, out, _ = _run(capsys, ["boundary", "--system", "til12", "--n", "7"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,f,g_at_Q,offsets"
    assert len(lines) == 8
    last = lines[-1].split(",")
    assert last[0] == "7"
    assert last[1] == "9"


def test_boundary_til2_csv(capsys):
    rc, out, _ = _run(capsys, ["boundary", "--system", "til2", "--n", "5"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,max_abs_f,offsets"
    for row in lines[1:]:
        assert int(row.split(",")[1]) <= 4


def test_boundary_refuses_past_the_letter_cap_up_front(capsys, monkeypatch):
    def row(*args):
        raise AssertionError("a row was computed before the cap check")

    monkeypatch.setattr(boundary, "til2_slippage_bound", row)
    monkeypatch.setattr(boundary, "balanced_pairs", row)
    monkeypatch.setattr(boundary, "pair_levels", row)
    rc, out, err = _run(capsys, ["boundary", "--system", "til2", "--n", "30"])
    assert rc == 3
    assert out == ""
    assert "til2: sigma^13 would have" in err


@pytest.mark.parametrize("system, refusal", [
    ("til2", "til2: sigma^13 would have 165580141 letters"),
    ("til12", "til12: sigma^20 would have"),
    ("til13", "til13: sigma^26 would have 100659247 letters")])
@pytest.mark.parametrize("n", [str(sys.maxsize), str(2 ** 70)])
def test_boundary_huge_n_exits_3(capsys, system, refusal, n):
    rc, out, err = _run(capsys, ["boundary", "--system", system, "--n", n])
    assert rc == 3 and out == ""
    assert err.startswith(f"error: {refusal}")


@pytest.mark.parametrize("n", ["-1", "-5"])
def test_boundary_negative_n_exits_2(capsys, n):
    rc, out, err = _run(capsys, ["boundary", "--system", "til12", "--n", n])
    assert rc == 2 and out == ""
    assert err == f"error: iteration count must be non-negative, got {n}\n"


def test_boundary_n_zero_prints_the_header(capsys):
    for system, header in (("til12", "n,f,g_at_Q,offsets"),
                           ("til2", "n,max_abs_f,offsets"),
                           ("til13", "n,fluctuation,offsets")):
        rc, out, _ = _run(capsys, ["boundary", "--system", system, "--n", "0"])
        assert rc == 0 and out == header + "\n"


def test_stats_pipeline(tmp_path, capsys):
    path = tmp_path / "t8.json"
    assert main(["generate", "--pq", "1/2", "--n", "8",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    rc, out, _ = _run(capsys, ["stats", "--in", str(path)])
    assert rc == 0
    data = json.loads(out)
    assert data["size"]["passed"] is True
    assert data["tiles"] == 2929
    rc, csv_out, _ = _run(capsys, ["stats", "--in", str(path), "--csv"])
    assert rc == 0
    assert csv_out.startswith("bin,analytic,empirical,abs_error")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flags", [(), ("--csv",)])
def test_stats_tolerance_must_be_finite_and_non_negative(tmp_path, capsys,
                                                         tolerance, flags):
    path = _broken_tiling(tmp_path, lambda text: text)
    capsys.readouterr()
    rc, out, err = _run(capsys, ["stats", "--in", path, *flags,
                                 "--tolerance", tolerance])
    assert rc == 2 and out == ""
    assert err.startswith("error: tolerance") and err.count("\n") == 1


def test_render_pipeline(tmp_path, capsys):
    src = tmp_path / "t4.json"
    dst = tmp_path / "t4.svg"
    assert main(["generate", "--pq", "1/2", "--n", "4",
                 "--out", str(src)]) == 0
    rc, _, _ = _run(capsys, ["render", "--in", str(src), "--out", str(dst),
                             "--faults"])
    assert rc == 0
    svg = dst.read_text()
    assert svg.startswith("<svg")
    assert "<polygon" in svg


def test_cli_output_is_deterministic(tmp_path, capsys):
    argvs = [
        ["classify", "--pq", "1/2"],
        ["spectral", "--pq", "2/1"],
        ["boundary", "--system", "til13", "--n", "6"],
        ["generate", "--theta", "1.0", "--n", "10"],
    ]
    for argv in argvs:
        first = _run(capsys, argv)
        second = _run(capsys, argv)
        assert first == second, argv


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["generate", "--pq", "1/2"]) == 2          # missing --n
    assert main(["generate", "--pq", "x/y", "--n", "1"]) == 2
    assert main(["generate", "--pq", "1/2", "--theta", "1.0", "--n", "1"]) == 2
    assert main(["stats", "--in", "/nonexistent.json"]) == 2
    capsys.readouterr()
    # --threads did nothing and was removed: it is an unknown option now
    assert main(["classify", "--pq", "1/2", "--threads", "1"]) == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_resource_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TILELAB_MAX_TILES", "10")
    assert main(["generate", "--pq", "1/1", "--n", "5"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0", "-5", "ten"])
def test_tile_cap_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("TILELAB_MAX_TILES", value)
    rc, out, err = _run(capsys, ["generate", "--pq", "1/1", "--n", "1"])
    assert rc == 2 and out == ""
    assert err.startswith("error: TILELAB_MAX_TILES must be a positive integer")


@pytest.mark.parametrize("command", [["stats"], ["render", "--faults"]])
def test_tiling_input_obeys_the_tile_cap(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "t2.json"
    assert main(["generate", "--pq", "1/2", "--n", "2", "--out", str(path)]) == 0
    for cap, want in (("8", 3), ("9", 0), ("0", 2), ("nine", 2)):
        monkeypatch.setenv("TILELAB_MAX_TILES", cap)     # T_2 holds 9 tiles
        capsys.readouterr()
        rc, out, err = _run(capsys, [*command, "--in", str(path)])
        assert rc == want, cap
        if want:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _broken_tiling(tmp_path, edit):
    """A valid T_1 tiling file, passed through ``edit`` (text -> text)."""
    good = tmp_path / "good.json"
    assert main(["generate", "--pq", "1/2", "--n", "1", "--out", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(edit(good.read_text()))
    return str(bad)


def _drop_key(key):
    def edit(text):
        data = json.loads(text)
        del data[key]
        return json.dumps(data)
    return edit


def _set_tiles(tiles):
    def edit(text):
        data = json.loads(text)
        data["tiles"] = tiles
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("command", ["stats", "render"])
def test_tiling_input_that_is_a_directory_exits_2(tmp_path, capsys, command):
    rc, out, err = _run(capsys, [command, "--in", str(tmp_path)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["directory", "missing-folder"])
def test_generate_out_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    out = tmp_path if target == "directory" else tmp_path / "no" / "t.json"
    rc, stdout, err = _run(capsys, ["generate", "--pq", "1/1", "--n", "1",
                                    "--out", str(out)])
    assert rc == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["stats", "render"])
@pytest.mark.parametrize("edit", [
    _drop_key("shape"),
    lambda text: text[: len(text) // 2],       # cut short: not JSON
    _set_tiles([]),
], ids=["missing-shape", "not-json", "empty-tiles"])
def test_malformed_tiling_json_exits_2(tmp_path, capsys, command, edit):
    path = _broken_tiling(tmp_path, edit)
    capsys.readouterr()
    rc, out, err = _run(capsys, [command, "--in", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_spectral_lower_bound_far_below_zero(capsys):
    # just below the alpha = beta angle the lower-bound root is near -6.2e7
    rc, out, err = _run(capsys, ["spectral", "--theta", "0.4636476"])
    assert rc == 0, err
    assert json.loads(out)["lower_bound"] < -1e7
    # at alpha = beta exactly the bound function has no root at all
    rc, out, err = _run(capsys, ["spectral", "--theta", repr(math.atan(0.5))])
    assert rc == 4
    assert out == ""
    assert err == "error: no bracket for the lower spectral bound\n"


def _change(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return edit


@pytest.mark.parametrize("c", [1e200, 1.4e154, 1e-154, 1e-300])
@pytest.mark.parametrize("command", ["stats", "render --faults"])
def test_hypotenuse_out_of_range_exits_2(tmp_path, capsys, command, c):
    path = _broken_tiling(tmp_path, _change(lambda data: data["shape"].update(c=c)))
    capsys.readouterr()
    rc, out, err = _run(capsys, [*command.split(), "--in", path])
    assert rc == 2 and out == ""
    assert err.startswith("error: hypotenuse") and err.count("\n") == 1


@pytest.mark.parametrize("c", [1.3e154, 1.5e-154])
def test_hypotenuse_near_the_range_ends_works(tmp_path, capsys, c):
    path = _broken_tiling(tmp_path, _change(lambda data: data["shape"].update(c=c)))
    for command in (["stats"], ["stats", "--csv"], ["render", "--faults"]):
        assert main([*command, "--in", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("change", [
    lambda data: data["shape"].update(theta=1.0),
    lambda data: data["shape"].update(rationality={"p": 2, "q": 1}),
], ids=["theta", "rationality"])
@pytest.mark.parametrize("command", ["stats", "render"])
def test_theta_contradicting_rationality_exits_2(tmp_path, capsys, command, change):
    path = _broken_tiling(tmp_path, _change(change))
    capsys.readouterr()
    out_path = tmp_path / "out"
    rc, out, err = _run(capsys, [command, "--in", path, "--out", str(out_path)])
    assert rc == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: tiling shape theta") and err.count("\n") == 1


def _set_phi(phi):
    return _change(lambda data: data["tiles"][3].update(phi=phi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("phi", [9.06e17, 1e300, -1.0, 6.2831853072])
@pytest.mark.parametrize("command", ["stats", "render --color phi"])
def test_heading_out_of_range_exits_2(tmp_path, capsys, command, phi):
    path = _broken_tiling(tmp_path, _set_phi(phi))
    capsys.readouterr()
    rc, out, err = _run(capsys, [*command.split(), "--in", path])
    assert rc == 2 and out == ""
    assert err.startswith("error: tile 'phi'") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_headings_the_writer_emits_keep_their_bins(tmp_path, capsys):
    # 12 digits write the heading just below 2pi as 6.28318530718, above 2pi
    t = build_Tn(shape_from_pq(1, 2), 1)
    cols = {name: getattr(t, name).copy() for name in
            ("handedness", "phi", "ox", "oy", "i", "j", "ids", "parent")}
    cols["phi"][3] = math.nextafter(2.0 * math.pi, 0.0)
    text = "".join(tiling_json_chunks(Tiling(t.shape, 1, cols)))
    assert '"phi": 6.28318530718\n' in text
    path = tmp_path / "top.json"
    path.write_text(text)
    rc, top, err = _run(capsys, ["stats", "--in", str(path)])
    assert rc == 0 and err == ""
    # it shares bin 0 with the headings 0.0 and -0.0
    for phi in (0.0, -0.0):
        rc, out, err = _run(capsys, ["stats", "--in",
                                     _broken_tiling(tmp_path, _set_phi(phi))])
        assert rc == 0 and out == top
    rc, svg, err = _run(capsys, ["render", "--color", "phi", "--in", str(path)])
    assert rc == 0 and err == "" and "hsl(360," in svg


def _far_tile(data):
    data["tiles"][3]["origin"] = [1e308, 1e308]


def _far_apart(data):
    data["tiles"][3]["origin"] = [1e308, 1e308]
    data["tiles"][4]["origin"] = [-1e308, -1e308]


@pytest.mark.parametrize("edit,flags", [
    (_far_tile, ["--faults"]),
    (_far_apart, ["--faults"]),
    (_far_apart, []),
], ids=["far-tile-faults", "far-apart-faults", "far-apart"])
def test_render_of_vertices_out_of_range_exits_2(tmp_path, capsys, edit, flags):
    path = _broken_tiling(tmp_path, _change(edit))
    capsys.readouterr()
    svg = tmp_path / "out.svg"
    rc, out, err = _run(capsys, ["render", "--in", path, *flags, "--out", str(svg)])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()     # refused before the output was opened


def test_rational_commands_never_load_mpmath(tmp_path):
    out = tmp_path / "t.json"
    code = ("import sys; from tilelab.cli import main; "
            f"assert main(['generate', '--pq', '1/2', '--n', '3', '--out', {str(out)!r}]) == 0; "
            f"assert main(['stats', '--in', {str(out)!r}, '--out', {str(out) + '.txt'!r}]) == 0; "
            f"assert main(['render', '--in', {str(out)!r}, '--faults', '--out', {str(out) + '.svg'!r}]) == 0; "
            "sys.exit('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0



def test_irrational_commands_never_load_mpmath(tmp_path):
    # irrational size keys are stdlib Decimals
    out = str(tmp_path / "h.json")
    commands = [["generate", "--theta", "1.0", "--n", "40", "--out", out],
                ["stats", "--in", out, "--out", out + ".txt"],
                ["render", "--in", out, "--faults", "--out", out + ".svg"],
                ["spectral", "--theta", "1.0"],
                ["classify", "--theta", "1.0"],
                ["classify", "--theta", "0.8", "--theta-pi", "irrational"]]
    code = ("import sys; from tilelab.cli import main; "
            f"failed = [argv for argv in {commands!r} if main(argv) != 0]; "
            "sys.exit(f'failed: {failed}' if failed else 'mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

_EXACT_COMMANDS = [
    [],
    ["boundary", "--system", "til2", "--n", "11"],
    ["boundary", "--system", "til13", "--n", "18"],
    ["spectral", "--theta", "1.0"],
    ["spectral", "--pq", "1/2"],
    ["spectral", "--pq", "3/5"],
    ["classify", "--pq", "1/3", "--theta-pi", "1/4"],
    ["classify", "--theta", "0.8", "--theta-pi", "irrational"],
]


@pytest.mark.parametrize("argv", _EXACT_COMMANDS, ids=lambda a: " ".join(a) or "import")
def test_exact_commands_never_load_numpy(argv):
    code = ("import sys; from tilelab.cli import main; argv = sys.argv[1:]; "
            "assert not argv or main(argv) == 0; "
            "sys.exit('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                            capture_output=True)
    assert result.returncode == 0, result.stderr


def test_census_library_calls_never_load_numpy():
    code = """if True:
        import math, sys
        from tilelab.geometry import shape_from_pq, shape_from_theta
        from tilelab.spectral import eigen
        from tilelab.stats import orientation_comparison, size_comparison
        size_comparison(shape_from_theta(1.0), 200)
        size_comparison(shape_from_pq(1, 2), 200, "count")
        orientation_comparison(shape_from_pq(1, 2), 20)
        for p in range(1, 21):
            for q in range(1, 21):
                if math.gcd(p, q) == 1:
                    eigen(shape_from_pq(p, q))
        sys.exit("numpy" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def stats_commands(tmp_path_factory):
    """``stats --in`` of a rational and an irrational tiling file, as JSON,
    CSV and with count weights."""
    folder = tmp_path_factory.mktemp("stats")
    commands = []
    for name, shape, n in (("1-2", shape_from_pq(1, 2), 8),
                           ("theta", shape_from_theta(1.0), 30)):
        path = folder / f"{name}.json"
        path.write_text("".join(tiling_json_chunks(build_Tn(shape, n))))
        commands += [["stats", "--in", str(path), *options]
                     for options in ([], ["--csv"], ["--weighting", "count"])]
    return commands


def test_stats_of_a_tiling_file_never_loads_numpy(stats_commands, capsys, monkeypatch):
    code = ("import sys; from tilelab.cli import main; "
            f"failed = [argv for argv in {stats_commands!r} if main(argv) != 0]; "
            "sys.exit(f'failed: {failed}' if failed else 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # in this process, with numpy loaded but not importable: the same text
    want = [_run(capsys, argv) for argv in stats_commands]
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert [_run(capsys, argv) for argv in stats_commands] == want
    assert all(rc == 0 and out and not err for rc, out, err in want)


def test_import_loads_every_traced_layer():
    layers = ("cli", "substitution", "stats", "spectral", "classify", "render",
              "boundary")
    code = ("import sys, tilelab.cli; "
            f"missing = [m for m in {layers!r} if 'tilelab.' + m not in sys.modules]; "
            "sys.exit(f'not imported: {missing}' if missing else 0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_the_package_alone_loads_no_module():
    code = ("import sys, tilelab; "
            "loaded = sorted(m for m in sys.modules if m.startswith('tilelab.') "
            "or m.split('.')[0] in ('numpy', 'mpmath')); "
            "sys.exit(f'loaded: {loaded}' if loaded else 0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_the_cli_import_loads_no_dataclasses():
    # the record types are NamedTuples, so no class is built by dataclasses
    # at start-up and its import of inspect is not paid either
    code = ("import sys; before = set(sys.modules); import tilelab.cli; "
            "loaded = sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)); "
            "sys.exit(f'loaded: {loaded}' if loaded else 0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_each_package_attribute_named_after_a_module_is_that_module():
    import importlib
    from pathlib import Path

    import tilelab
    names = sorted(p.stem for p in Path(tilelab.__file__).parent.glob("*.py")
                   if p.stem != "__init__")
    for name in names:
        importlib.import_module("tilelab." + name)
    for name in names:
        assert getattr(tilelab, name) is sys.modules["tilelab." + name], name


def test_the_benchmark_tracer_wraps_the_library():
    # bench/spans.py wraps functions by module attribute and binds
    # iterate's arguments by name; a rename there surfaces here
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    code = "\n".join([
        "import sys",
        "import tilelab.cli",
        "import spans",
        "from tilelab import boundary, substitution",
        "from tilelab.geometry import shape_from_pq",
        "tracer = spans.Tracer()",
        "tracer.install()",
        "boundary.iterate(boundary.sigma_til12(), 'H', 4)",
        "substitution.build_Tn(shape_from_pq(1, 2), 3)",
        "boundary.slippage_til12(4)",
        "counts = {k: tracer.counts[k] for k in ('boundary.iterate.letters',",
        "          'substitution.tiles', 'boundary.offsets')}",
        "bad = {k: v for k, v in counts.items() if not v > 0}",
        "sys.exit(f'not counted: {bad}' if bad else 0)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench, *sys.path]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _paths(node, prefix=()):
    """Every key or index path into a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_SMALL = json.loads("".join(tiling_json_chunks(build_Tn(shape_from_pq(1, 2), 3))))
_SMALL["tiles"] = _SMALL["tiles"][:6]     # two parents, two size classes
_DELETE = object()
_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.floats(), st.integers(-2 ** 40, 2 ** 40)), max_size=3),
    st.dictionaries(st.sampled_from(["p", "q", "x"]), st.integers(-3, 3), max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_paths(_SMALL), key=repr)), _VALUES)
@example(("shape", "c"), 1e200)
@example(("tiles", 3, "origin", 0), 1e308)
@example(("tiles", 3, "j"), 0)      # more size classes than the shape holds
@example(("tiles", 3, "phi"), 9.06e17)      # a heading past the int64 bins
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_changed_tiling_field_never_raises(path, value):
    data = copy.deepcopy(_SMALL)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "t.json")
        with open(src, "w") as fh:
            json.dump(data, fh)
        for command in (["stats"], ["render", "--faults"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main([*command, "--in", src])
            assert rc in (0, 2, 3, 4), (command, path, value)


# -- argv fuzzing ---------------------------------------------------------------

def _opt(flag, values):
    return st.tuples(st.just(flag), values)


_TEXT = st.text(max_size=4)
_N = st.one_of(st.integers(-3, 10).map(str), _TEXT,
               st.integers(2 ** 62, 2 ** 70).map(str))
_FLOAT = st.one_of(st.floats().map(repr), _TEXT)
_OUT = _opt("--out", st.sampled_from(["{tmp}/out", "{tmp}", "{tmp}/no/out"]))
_IN = _opt("--in", st.sampled_from(["{tmp}/t.json", "{tmp}/bad.json",
                                    "{tmp}/missing.json", "{tmp}"]))
_SHAPE = st.one_of(
    _opt("--pq", st.one_of(st.builds("{}/{}".format, st.integers(-2, 70),
                                     st.integers(-2, 70)), _TEXT)),
    _opt("--theta", _FLOAT))
_OPTIONS = {
    "generate": [_SHAPE, _opt("--n", _N), _OUT],
    "classify": [_SHAPE, _opt("--theta-pi", st.one_of(
        st.sampled_from(["1/4", "1/6", "0/1", "1/0", "irrational"]), _TEXT)), _OUT],
    "spectral": [_SHAPE, _OUT],
    "boundary": [_opt("--system", st.sampled_from(["til12", "til2", "til13", "x"])),
                 _opt("--n", _N), _OUT],
    "stats": [_IN, _opt("--weighting", st.sampled_from(["count", "area", "x"])),
              _opt("--tolerance", _FLOAT), st.just(("--csv",)), _OUT],
    "render": [_IN, _opt("--color", st.sampled_from(["size", "phi", "x"])),
               st.just(("--faults",)), _OUT],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option in _OPTIONS[command]:
        if draw(st.integers(0, 4)):      # mostly present, sometimes left out
            argv += draw(option)
    if draw(st.integers(0, 9)) == 0:     # now and then a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(_TEXT))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "t.json").write_text(json.dumps(_SMALL))
    (tmp / "bad.json").write_text("{")
    return str(tmp)


@settings(max_examples=300, deadline=None)
@given(argv=_argv(), cap=st.sampled_from(["1", "700", "5000", "0", "-4", "x", ""]))
@example(argv=["generate", "--pq", "1/1", "--n", "10"], cap="5000")
@example(argv=["spectral", "--pq", ""], cap="1")        # was read as no --pq
@example(argv=["classify", "--pq", "1/1", "--theta-pi", "1/0"], cap="1")
@example(argv=["classify", "--pq", "1/3", "--theta-pi", "1" + "0" * 400 + "/1"], cap="1")
@example(argv=["boundary", "--system", "til2", "--n", "9223372036854775807"], cap="1")
@example(argv=["boundary", "--system", "til12", "--n", "9223372036854775807"], cap="1")
@example(argv=["boundary", "--system", "til13", "--n", "9223372036854775807"], cap="1")
def test_any_argv_exits_with_a_documented_code(fuzz_dir, argv, cap):
    argv = [arg.replace("{tmp}", fuzz_dir) for arg in argv]
    old = os.environ.get("TILELAB_MAX_TILES")
    os.environ["TILELAB_MAX_TILES"] = cap     # keeps every build small
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
    finally:
        if old is None:
            del os.environ["TILELAB_MAX_TILES"]
        else:
            os.environ["TILELAB_MAX_TILES"] = old
    assert rc in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
