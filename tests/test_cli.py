import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from bihomlie.algebra import BiHomAlgebra, StructureTensor, check_all, conjugate_algebra
from bihomlie.analysis import decompose_bihom, is_simple
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, sl2_bihom
from bihomlie.classify3 import bihom_isomorphic3, classify3
from bihomlie.errors import AxiomViolation, DimensionMismatch, ParseError
from bihomlie.exactlin import MatrixQ
from bihomlie.fileio import dumps_algebra, load, load_matrix, loads_algebra, save
from bihomlie.twist import induce_lie
from conftest import random_invertible


def run_cli(*args, cwd=None):
    """The command line in a fresh interpreter under -W error: a warning that
    bihomlie/__main__.py or the -m entry point raises, which pytest's
    filterwarnings never sees, fails the call."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "bihomlie", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_save_load_roundtrip(tmp_path):
    """L1(2, 3), and a dense conjugate of a dimension-9 sum whose grids are
    mostly p/q entries over several denominators."""
    dense = conjugate_algebra(direct_sum([make_L1(2, 3), make_L3(5), make_L2()]),
                              random_invertible(9, random.Random(0)))
    for algebra in (make_L1(2, 3), dense):
        path = tmp_path / "algebra.json"
        save(algebra, path)
        loaded = load(path)
        assert loaded.tensor == algebra.tensor
        assert loaded.alpha == algebra.alpha
        assert loaded.beta == algebra.beta
        # canonical files re-serialize byte for byte
        assert dumps_algebra(loaded) == path.read_text()


def test_load_rejects_zero_denominator():
    good = dumps_algebra(sl2_bihom())
    with pytest.raises(ParseError):
        loads_algebra(good.replace('"1"', '"2/0"', 1))


def test_load_rejects_wrong_grid_size():
    doc = json.loads(dumps_algebra(sl2_bihom()))
    doc["alpha"] = doc["alpha"][:2]
    with pytest.raises(DimensionMismatch):
        loads_algebra(json.dumps(doc))


def test_load_rejects_unknown_field():
    doc = json.loads(dumps_algebra(sl2_bihom()))
    doc["extra"] = 1
    with pytest.raises(ParseError):
        loads_algebra(json.dumps(doc))


def test_load_rejects_each_header_fault():
    """The fields read before the grids: a top level that is not an object,
    missing fields, a dim that is not a positive integer and a basis label
    that is not a string."""
    doc = json.loads(dumps_algebra(make_L1(2, 3)))
    for bad, message in (
            ([doc], "top level: expected a JSON object"),
            ({}, "missing fields: alpha, basis, beta, bracket, dim"),
            (dict(doc, dim=0), "dim: expected a positive integer"),
            (dict(doc, dim="3"), "dim: expected a positive integer"),
            (dict(doc, dim=True), "dim: expected a positive integer"),
            (dict(doc, basis=["e1", 2, "e3"]), "basis[1]: expected a string label")):
        with pytest.raises(ParseError) as exc:
            loads_algebra(json.dumps(bad))
        assert str(exc.value) == message, bad


def test_load_rejects_a_repeated_key(tmp_path):
    """A key given twice is named in a ParseError, at the top level and in a
    nested object, instead of the last value being kept."""
    text = dumps_algebra(sl2_bihom())
    with pytest.raises(ParseError, match="repeated key 'dim'"):
        loads_algebra(text.replace('"dim": 3,', '"dim": 3,\n  "dim": 3,'))
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"beta":', '"alpha": [["9"]],\n  "beta":'))
    with pytest.raises(ParseError, match="repeated key 'alpha'"):
        load(path)
    path.write_text('{"a": {"k": 1, "k": 2}}')
    with pytest.raises(ParseError, match="repeated key 'k'"):
        load(path)


def test_cli_repeated_key_exit_code(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(dumps_algebra(sl2_bihom()).replace('"dim": 3,', '"dim": 3,\n  "dim": 3,'))
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert "repeated key 'dim'" in result.stderr


def test_cli_catalog_check_roundtrip(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli("catalog", "L1", "--a", "2", "--b", "3", "-o", str(out)).returncode == 0
    result = run_cli("check", str(out))
    assert result.returncode == 0
    assert "jacobi: pass" in result.stdout


def test_cli_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads(dumps_algebra(sl2_bihom()))
    doc["alpha"][0][1] = "1"  # breaks multiplicativity
    bad.write_text(json.dumps(doc))
    result = run_cli("check", str(bad))
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_cli_check_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", str(bad)).returncode == 2
    missing = run_cli("check", str(tmp_path / "missing.json"))
    assert missing.returncode == 2


def test_cli_induce(tmp_path):
    src = tmp_path / "l1.json"
    out = tmp_path / "induced.json"
    save(make_L1(2, 3), src)
    assert run_cli("induce", str(src), "-o", str(out)).returncode == 0
    induced = load(out)
    from bihomlie.catalog import make_sl2
    assert induced.tensor == make_sl2()
    assert induced.alpha == make_L1(2, 3).alpha


def test_cli_induce_not_regular(tmp_path):
    src = tmp_path / "singular.json"
    singular = BiHomAlgebra(dim=3, tensor=sl2_bihom().tensor,
                            alpha=MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                            beta=MatrixQ.identity(3))
    save(singular, src)
    result = run_cli("induce", str(src), "-o", str(tmp_path / "out.json"))
    assert result.returncode == 1
    assert "NotRegular" in result.stderr


def test_cli_twist(tmp_path):
    lie = tmp_path / "sl2.json"
    save(sl2_bihom(), lie)
    alpha = tmp_path / "alpha.json"
    beta = tmp_path / "beta.json"
    alpha.write_text('[["1","0","0"],["0","2","0"],["0","0","1/2"]]')
    beta.write_text('[["1","0","0"],["0","3","0"],["0","0","1/3"]]')
    out = tmp_path / "twisted.json"
    assert run_cli("twist", str(lie), "--alpha", str(alpha),
                   "--beta", str(beta), "-o", str(out)).returncode == 0
    assert load(out).tensor == make_L1(2, 3).tensor


def test_cli_induce_and_twist_back_rewrite_the_catalog_file(tmp_path):
    """induce L1(2, 3) to sl2, then twist it back by diag(1, 2, 1/2) and
    diag(1, 3, 1/3): the file written is the catalog file byte for byte."""
    l1, lie, back = tmp_path / "l1.json", tmp_path / "l1.lie.json", tmp_path / "back.json"
    alpha, beta = tmp_path / "alpha.json", tmp_path / "beta.json"
    alpha.write_text('[["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]]\n')
    beta.write_text('[["1", "0", "0"], ["0", "3", "0"], ["0", "0", "1/3"]]\n')
    assert run_cli("catalog", "L1", "--a", "2", "--b", "3", "-o", str(l1)).returncode == 0
    assert run_cli("induce", str(l1), "-o", str(lie)).returncode == 0
    result = run_cli("twist", str(lie), "--alpha", str(alpha), "--beta", str(beta),
                     "-o", str(back))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert back.read_bytes() == l1.read_bytes()


def test_cli_twist_rejects_bad_hypothesis(tmp_path):
    lie = tmp_path / "sl2.json"
    save(sl2_bihom(), lie)
    alpha = tmp_path / "alpha.json"
    beta = tmp_path / "beta.json"
    alpha.write_text('[["1","1","0"],["0","1","1"],["0","0","1"]]')
    beta.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    result = run_cli("twist", str(lie), "--alpha", str(alpha),
                     "--beta", str(beta), "-o", str(tmp_path / "out.json"))
    assert result.returncode == 1
    assert "alpha" in result.stderr  # names the failing hypothesis


def test_cli_twist_rejects_wrong_sized_maps(tmp_path):
    lie = tmp_path / "sl2.json"
    save(sl2_bihom(), lie)
    identity = tmp_path / "identity2.json"
    identity.write_text('[["1","0"],["0","1"]]')
    result = run_cli("twist", str(lie), "--alpha", str(identity),
                     "--beta", str(identity), "-o", str(tmp_path / "out.json"))
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: alpha must be 3x3\n")
    assert not (tmp_path / "out.json").exists()


def test_usage_errors_return_2_and_help_returns_0(tmp_path, capsys):
    """A malformed command line makes main print the synopsis and the error
    to standard error and return 2 without raising; -h or --help, at the top
    level or after a command, prints usage to standard output and returns 0."""
    from bihomlie import cli
    f, g, x = (str(tmp_path / name) for name in ("f.json", "g.json", "x.json"))
    save(sl2_bihom(), f)
    save(sl2_bihom(), g)
    for argv in ([], ["nope"], ["check"], ["induce", f], ["twist", f, "--alpha"],
                 ["check", f, g], ["check", f, "--bogus"], ["catalog", "nope", "-o", x]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "usage: bihomlie" in err and "error:" in err, (argv, out, err)
    assert not (tmp_path / "x.json").exists()
    for flag in ("-h", "--help"):
        assert cli.main([flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: bihomlie") and err == ""
        assert all(name in out for name in cli._COMMANDS)
    for name in cli._COMMANDS:
        for flag in ("-h", "--help"):
            assert cli.main([name, flag]) == 0
            out, err = capsys.readouterr()
            assert out.startswith(f"usage: bihomlie {name} ") and err == "", (name, out)
    result = run_cli()
    assert (result.returncode, result.stdout) == (2, "")
    assert "usage: bihomlie" in result.stderr and "error:" in result.stderr


def test_cli_double_dash_ends_the_options(tmp_path, monkeypatch, capsys):
    """After "--" every word is a positional: check --json -- FILE reads FILE,
    and check -- --json reads a file named --json."""
    from bihomlie import cli
    path = tmp_path / "l1.json"
    save(make_L1(2, 3), path)
    assert cli.main(["check", "--json", "--", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check", "--", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read --json: "), err


def test_cli_typed_errors_of_a_file_exit_2(tmp_path, capsys):
    """A document without its fields, and classify3 on a file of dimension
    2, print their typed error and exit 2."""
    from bihomlie import cli
    empty, plane = tmp_path / "empty.json", tmp_path / "plane.json"
    empty.write_text("{}\n")
    save(BiHomAlgebra(dim=2, tensor=StructureTensor.zero(2), alpha=MatrixQ.identity(2),
                      beta=MatrixQ.identity(2)), plane)
    for argv, message in (
            (["check", str(empty)], "missing fields: alpha, basis, beta, bracket, dim"),
            (["classify3", str(plane)], "classification is implemented for dimension 3")):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_cli_negative_parameter_values_are_read_verbatim(tmp_path):
    """An option's value is the next word as it stands, so a negative
    fraction after a space writes the same file as one joined by "="."""
    from bihomlie import cli
    for name, spaced, joined in (("L3", ["--a", "-2/3"], ["--a=-2/3"]),
                                 ("L1", ["--a", "3", "--b", "-5/2"], ["--a", "3", "--b=-5/2"])):
        paths = tmp_path / f"{name}.spaced.json", tmp_path / f"{name}.joined.json"
        for params, path in zip((spaced, joined), paths):
            assert cli.main(["catalog", name, *params, "-o", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI call pays for what `import bihomlie.cli` loads; compared with
    a bare interpreter, it adds neither dataclasses nor inspect (which
    brings ast, dis and tokenize), nor argparse with gettext and locale."""
    import bihomlie
    env = dict(os.environ, PYTHONPATH=str(Path(bihomlie.__file__).parents[1]))
    show = "import sys; print('\\n'.join(sys.modules))"

    def modules(prefix):
        out = subprocess.run([sys.executable, "-c", prefix + show], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    added = modules("import bihomlie.cli; ") - modules("")
    assert "bihomlie.cli" in added
    forbidden = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert not added & forbidden, sorted(added & forbidden)


def test_cli_analyze_direct_sum(tmp_path):
    src = tmp_path / "double.json"
    save(direct_sum([sl2_bihom(), sl2_bihom()]), src)
    result = run_cli("analyze", str(src))
    assert result.returncode == 0
    assert "m = 2" in result.stdout
    assert "(A1, m=2)" in result.stdout
    assert "simple: False" in result.stdout
    json_result = run_cli("analyze", str(src), "--json")
    doc = json.loads(json_result.stdout)
    assert doc["induced"]["decomposition"]["m"] == 2
    assert doc["induced"]["decomposition"]["ideal_dims"] == [3, 3]
    assert {"series": "A", "rank": 1, "m": 2} in doc["type_candidates"]


def test_cli_analyze_non_regular(tmp_path):
    # valid algebra with a singular map: analysis still runs, induced data absent
    from bihomlie.algebra import StructureTensor
    src = tmp_path / "singular.json"
    save(BiHomAlgebra(dim=2, tensor=StructureTensor.zero(2),
                      alpha=MatrixQ([[0] * 2] * 2), beta=MatrixQ.identity(2)), src)
    result = run_cli("analyze", str(src))
    assert result.returncode == 0
    assert "regular: False" in result.stdout
    assert "unavailable" in result.stdout
    doc = json.loads(run_cli("analyze", str(src), "--json").stdout)
    assert doc["induced"] is None
    assert doc["abelian"] is True


def test_cli_analyze_m2_warning(tmp_path):
    from bihomlie.twist import TwistInput, yau_twist
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    swap = MatrixQ.from_columns(
        [tuple(Q(1) if i == (j + 3) % 6 else Q(0) for i in range(6)) for j in range(6)])
    twisted = yau_twist(TwistInput(double.tensor, swap, MatrixQ.identity(6)))
    src = tmp_path / "swap.json"
    save(twisted, src)
    result = run_cli("analyze", str(src))
    assert result.returncode == 0
    assert "warning: m = 2" in result.stdout


def test_cli_classify3(tmp_path):
    src = tmp_path / "l2.json"
    from bihomlie.catalog import make_L2
    save(make_L2(), src)
    result = run_cli("classify3", str(src))
    assert result.returncode == 0
    assert "family: L2" in result.stdout
    json_result = run_cli("classify3", str(src), "--json")
    doc = json.loads(json_result.stdout)
    assert doc["family"] == "L2"
    assert doc["params"] == []


def test_cli_classify3_not_simple(tmp_path):
    src = tmp_path / "abelian.json"
    from bihomlie.algebra import StructureTensor
    abelian = BiHomAlgebra(dim=3, tensor=StructureTensor.zero(3),
                           alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))
    save(abelian, src)
    result = run_cli("classify3", str(src))
    assert result.returncode == 1
    assert "NotSimple" in result.stderr


def test_cli_iso3(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save(make_L1(2, 3), a)
    from bihomlie.algebra import conjugate_algebra
    import random
    from conftest import random_invertible
    save(conjugate_algebra(make_L1(2, 3), random_invertible(3, random.Random(5))), b)
    result = run_cli("iso3", str(a), str(b))
    assert result.returncode == 0
    assert "isomorphic" in result.stdout
    from bihomlie.catalog import make_L2
    c = tmp_path / "c.json"
    save(make_L2(), c)
    result = run_cli("iso3", str(a), str(c))
    assert result.returncode == 0
    assert "not isomorphic" in result.stdout


def test_cli_catalog_requires_parameters(tmp_path):
    result = run_cli("catalog", "L1", "-o", str(tmp_path / "x.json"))
    assert result.returncode == 2
    result = run_cli("catalog", "L3", "-o", str(tmp_path / "x.json"))
    assert result.returncode == 2
    result = run_cli("catalog", "nope", "-o", str(tmp_path / "x.json"))
    assert result.returncode == 2
    # a parameter missing, or one the family does not take, is a usage error
    # that writes nothing
    out = tmp_path / "y.json"
    for argv, message in [
            (("L1", "--b", "3"), "catalog L1 requires --a"),
            (("L1",), "catalog L1 requires --a and --b"),
            (("L3",), "catalog L3 requires --a"),
            (("sl2", "--a", "2"), "catalog sl2 takes no --a"),
            (("L2", "--a", "2", "--b", "3"), "catalog L2 takes no --a and --b"),
            (("L3", "--a", "2", "--b", "3"), "catalog L3 takes no --b")]:
        result = run_cli("catalog", *argv, "-o", str(out))
        assert result.returncode == 2 and result.stdout == "", argv
        assert result.stderr.splitlines() == [
            "usage: bihomlie catalog [-h] [--a A] [--b B] -o OUTPUT name",
            f"bihomlie catalog: error: {message}"], argv
        assert not out.exists()


def test_cli_catalog_bad_rational(tmp_path):
    result = run_cli("catalog", "L1", "--a", "2/0", "--b", "1",
                     "-o", str(tmp_path / "x.json"))
    assert result.returncode == 2


def test_cli_json_outputs_byte_stable(tmp_path):
    src = tmp_path / "l3.json"
    from bihomlie.catalog import make_L3
    save(make_L3(3), src)
    for args in (("check", str(src), "--json"),
                 ("analyze", str(src), "--json"),
                 ("classify3", str(src), "--json")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_analyze_verifies_each_object_once(tmp_path, monkeypatch, capsys):
    """analyze verifies a regular input once, on its induced Lie algebra:
    one _lie_kernel run, which killing_form then finds kept, and no
    _axiom_kernel run. An input with a singular map, and the check command,
    run the twisted check_all kernel once; the singular map is inverted
    once, its NotRegular kept on the object."""
    from bihomlie import algebra, cli, twist

    calls = {"axiom": 0, "lie": 0, "invert": 0}

    def counting(key, kernel):
        def wrapper(*args):
            calls[key] += 1
            return kernel(*args)
        return wrapper

    def run(argv, a, name):
        path = tmp_path / name
        save(a, path)
        calls.update(axiom=0, lie=0, invert=0)
        assert cli.main([*argv, "--json", str(path)]) == 0
        return json.loads(capsys.readouterr().out), path

    monkeypatch.setattr(algebra, "_axiom_kernel", counting("axiom", algebra._axiom_kernel))
    monkeypatch.setattr(algebra, "_lie_kernel", counting("lie", algebra._lie_kernel))
    monkeypatch.setattr(twist, "invert", counting("invert", twist.invert))
    basis = random_invertible(3, random.Random(8))
    blocks = MatrixQ([[basis.entries[i % 3][j % 3] if i // 3 == j // 3 else 0
                       for j in range(6)] for i in range(6)])
    regular = conjugate_algebra(direct_sum([make_L1(2, 3), make_L3(5)]), blocks)
    doc, path = run(["analyze"], regular, "regular.json")
    assert doc["regular"] and doc["induced"]["decomposition"]["m"] == 2
    assert calls == {"axiom": 0, "lie": 1, "invert": 2}
    doc, _ = run(["check"], regular, "regular.json")
    assert doc["all_pass"] and calls == {"axiom": 1, "lie": 0, "invert": 0}
    zero = MatrixQ([[0] * 3] * 3)
    singular = direct_sum([make_L1(2, 3), BiHomAlgebra(dim=3, tensor=make_L3(5).tensor,
                                                       alpha=zero, beta=zero)])
    doc, _ = run(["analyze"], conjugate_algebra(singular, blocks), "singular.json")
    assert not doc["regular"] and not doc["simple"]
    assert calls == {"axiom": 1, "lie": 0, "invert": 1}
    # the report lives on the loaded object: a second load is verified again
    calls.update(axiom=0)
    first, second = load(path), load(path)
    assert check_all(first) is check_all(first)
    check_all(second)
    assert calls["axiom"] == 2


def corrupted_l1():
    """make_L1(2, 3) with the e2 coefficient of [e1, e2] moved from 6 to 7."""
    good = make_L1(2, 3)
    c = [[list(row) for row in plane] for plane in good.tensor.c]
    c[0][1][1] += 1
    return BiHomAlgebra(dim=3, tensor=StructureTensor(c), alpha=good.alpha, beta=good.beta)


def corrupted_non_regular():
    """Zero bracket with a singular alpha that does not commute with beta."""
    return BiHomAlgebra(dim=2, tensor=StructureTensor.zero(2),
                        alpha=MatrixQ([[0, 1], [0, 0]]), beta=MatrixQ([[1, 0], [0, 2]]))


GATED_LIBRARY = {
    "is_simple": is_simple,
    "induce_lie": induce_lie,
    "decompose_bihom": decompose_bihom,
    "classify3": classify3,
    "iso3": lambda a: bihom_isomorphic3(a, make_L1(2, 3)),
}


@pytest.mark.parametrize("entry, corrupted, failing", [
    *((name, corrupted_l1, "skew, jacobi") for name in GATED_LIBRARY),
    *((f"cli {name}", corrupted_l1, "skew, jacobi")
      for name in ("analyze", "classify3", "iso3", "induce")),
    ("is_simple", corrupted_non_regular, "commuting"),
    ("cli analyze", corrupted_non_regular, "commuting"),
])
def test_axiom_gate(entry, corrupted, failing, tmp_path, capsys):
    """Every entry point that needs a verified algebra raises AxiomViolation
    naming the failing checks; the CLI exits 1 with nothing on stdout."""
    from bihomlie import cli
    message = "input is not a verified BiHom-Lie algebra; failing checks: " + failing
    if not entry.startswith("cli "):
        with pytest.raises(AxiomViolation) as info:
            GATED_LIBRARY[entry](corrupted())
        assert str(info.value) == message
        return
    bad, good, out = tmp_path / "bad.json", tmp_path / "good.json", tmp_path / "out.json"
    save(corrupted(), bad)
    save(make_L1(2, 3), good)
    argv = {"cli analyze": ["analyze", "--json", str(bad)],
            "cli classify3": ["classify3", "--json", str(bad)],
            "cli iso3": ["iso3", "--json", str(bad), str(good)],
            "cli induce": ["induce", str(bad), "-o", str(out)]}[entry]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"AxiomViolation: {message}\n")
    assert not out.exists()


def _fuzz_files():
    """Catalog files and a matrix file, as (name, text)."""
    from bihomlie.catalog import make_L2
    files = [(f"alg{i}.json", dumps_algebra(a))
             for i, a in enumerate((sl2_bihom(), make_L1(2, 3), make_L2(), make_L3(3)))]
    files.append(("alpha.json", '[["1","0","0"],["0","2","0"],["0","0","1/2"]]\n'))
    return files


def _fuzz_argv(tmp_path, name, path):
    """The commands run on one fuzzed file: the matrix file goes to twist."""
    if name == "alpha.json":
        lie = tmp_path / "lie.json"
        save(sl2_bihom(), lie)
        beta = tmp_path / "beta.json"
        beta.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
        return [["twist", str(lie), "--alpha", str(path), "--beta", str(beta),
                 "-o", str(tmp_path / "out.json")]]
    return [["check", str(path)], ["analyze", "--json", str(path)],
            ["classify3", "--json", str(path)]]


def test_cli_fuzz_truncated_and_mutated_files(tmp_path, capsys):
    from bihomlie import cli
    rng = random.Random(73)
    for name, text in _fuzz_files():
        data = text.encode("utf-8")
        end = len(text.rstrip())    # every shorter prefix lacks the closing bracket
        path = tmp_path / name
        for cut in [0, end - 1] + [rng.randrange(end) for _ in range(4)]:
            path.write_bytes(data[:cut])
            for argv in _fuzz_argv(tmp_path, name, path):
                assert cli.main(argv) == 2, (argv, cut)
        for _ in range(12):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            path.write_bytes(bytes(mutated))
            for argv in _fuzz_argv(tmp_path, name, path):
                assert cli.main(argv) in (0, 1, 2), (argv, bytes(mutated))
    capsys.readouterr()


def script_entry():
    """The module and function of the bihomlie script in pyproject.toml's
    [project.scripts], read with a regex: CPython 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^\[project\.scripts\]\nbihomlie = "([\w.]+):(\w+)"$', text, re.M)
    assert match, "pyproject.toml declares no bihomlie script"
    return match.groups()


def test_cli_closed_stdout_exits_2_silently(tmp_path):
    """A reader that has closed standard output before the command writes
    gets exit 2 and nothing on standard error; a missing input file still
    says why. Each case runs with standard output unbuffered, where a print
    fails inside cli.main, and buffered, where the output fails only in the
    flush after main has returned 0. It runs under both launchers: -m
    bihomlie, and the installed script, called as pip's wrapper calls the
    target that pyproject.toml names."""
    module, function = script_entry()
    launchers = [("-m", "bihomlie"),
                 ("-c", f"import sys; from {module} import {function}; sys.exit({function}())")]
    path, missing = tmp_path / "sl2.json", tmp_path / "missing.json"
    save(sl2_bihom(), path)
    cases = [(("check", "--json", str(path)), ""), (("analyze", "--json", str(path)), ""),
             (("check", "--json", str(missing)), f"error: cannot read {missing}: ")]
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for launcher in launchers:
        for args, stderr in cases:
            for env in (dict(buffered, PYTHONUNBUFFERED="1"), buffered):
                read, write = os.pipe()
                os.close(read)
                try:
                    result = subprocess.run([sys.executable, "-W", "error", *launcher, *args],
                                            stdout=write, stderr=subprocess.PIPE, text=True,
                                            env=env)
                finally:
                    os.close(write)
                where = (launcher[1], args, env.get("PYTHONUNBUFFERED"))
                assert result.returncode == 2, (where, result.stderr)
                assert (result.stderr.startswith(stderr)
                        and bool(result.stderr) == bool(stderr)), (where, result.stderr)


def test_load_rejects_invalid_utf8(tmp_path):
    from bihomlie.fileio import load_matrix
    path = tmp_path / "bad.json"
    path.write_bytes(dumps_algebra(sl2_bihom()).encode().replace(b'"e1"', b'"e\xff"'))
    with pytest.raises(ParseError):
        load(path)
    path.write_bytes(b'[["1\xc3"]]')
    with pytest.raises(ParseError):
        load_matrix(path)
    assert run_cli("check", str(path)).returncode == 2


def test_cli_split_undecided_exit_code(tmp_path, capsys):
    from bihomlie import cli
    from bihomlie.algebra import StructureTensor
    a = 10000000000000000051 * 20000000000000000011
    b = 30000000000000000041 * 50000000000000000059
    quaternions = StructureTensor.from_brackets(3, {
        (0, 1): (0, 0, 2), (1, 0): (0, 0, -2),
        (1, 2): (-2 * b, 0, 0), (2, 1): (2 * b, 0, 0),
        (2, 0): (0, -2 * a, 0), (0, 2): (0, 2 * a, 0),
    })
    path = tmp_path / "quaternions.json"
    save(BiHomAlgebra(dim=3, tensor=quaternions, alpha=MatrixQ.identity(3),
                      beta=MatrixQ.identity(3)), path)
    assert cli.main(["classify3", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("SplitUndecided: cannot factor")


def test_rational_with_trailing_newline_is_rejected(tmp_path, capsys):
    """The documented form -?[0-9]+(/[1-9][0-9]*)? must match the whole
    string, so "1\\n" is not a rational in a bracket, alpha or matrix file."""
    from bihomlie import cli
    from bihomlie.fileio import load_matrix, parse_rational
    assert parse_rational("-12/8", "x") == Q(-3, 2)
    assert parse_rational("007", "x") == 7
    for text in ("1\n", "1/2\n", " 1", "1/0", "+1", "1.5", "1/-2", "1\n/2"):
        with pytest.raises(ParseError):
            parse_rational(text, "x")
    lie, identity = tmp_path / "lie.json", tmp_path / "identity.json"
    save(sl2_bihom(), lie)
    identity.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    doc = json.loads(dumps_algebra(sl2_bihom()))
    for key in ("bracket", "alpha"):
        bad = json.loads(json.dumps(doc))
        if key == "bracket":
            bad["bracket"][0][1][1] += "\n"      # [h, e] = 2e
        else:
            bad["alpha"][0][0] += "\n"
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ParseError, match=key):
            load(path)
        assert cli.main(["check", str(path)]) == 2
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([["1\n", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    with pytest.raises(ParseError, match=r"matrix\[0\]\[0\]"):
        load_matrix(matrix)
    assert cli.main(["twist", str(lie), "--alpha", str(matrix), "--beta", str(identity),
                     "-o", str(tmp_path / "out.json")]) == 2
    assert "is not a rational" in capsys.readouterr().err


def test_parse_error_names_the_bad_entry():
    """Locations are formatted only for a failing entry; the message is the
    one a per-entry location gives, deep in bracket and in beta alike."""
    doc = json.loads(dumps_algebra(direct_sum([sl2_bihom(), make_L1(2, 3)])))
    bad = json.loads(json.dumps(doc))
    bad["bracket"][5][4][3] = "2/x"
    with pytest.raises(ParseError) as exc:
        loads_algebra(json.dumps(bad))
    assert str(exc.value) == "bracket[5][4][3]: '2/x' is not a rational of the form p or p/q"
    bad = json.loads(json.dumps(doc))
    bad["beta"][4][5], bad["alpha"][5][5] = 7, "1/0"   # beta parses after alpha
    with pytest.raises(ParseError) as exc:
        loads_algebra(json.dumps(bad))
    assert str(exc.value) == "alpha[5][5]: '1/0' is not a rational of the form p or p/q"
    bad["alpha"][5][5] = "1"
    with pytest.raises(ParseError) as exc:
        loads_algebra(json.dumps(bad))
    assert str(exc.value) == "beta[4][5]: 7 is not a rational of the form p or p/q"


def test_cli_oversized_inputs_are_parse_errors(tmp_path):
    """JSON nested past the interpreter's recursion limit and integers past
    its digit limit are typed parse errors (exit 2), never a traceback."""
    deep, wide = tmp_path / "deep.json", tmp_path / "wide.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    big = "1" + "0" * 5000
    wide.write_text(json.dumps([[big, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    lie, bad_alpha = tmp_path / "lie.json", tmp_path / "bad_alpha.json"
    save(sl2_bihom(), lie)
    doc = json.loads(dumps_algebra(sl2_bihom()))
    doc["alpha"][0][0] = big
    bad_alpha.write_text(json.dumps(doc))
    number = tmp_path / "number.json"
    number.write_text('{"dim": ' + big + "}")
    out = str(tmp_path / "out.json")
    cases = [(("check", str(deep)), "deep.json: JSON nested too deeply"),
             (("check", str(number)), "number.json: JSON number exceeds"),
             (("check", str(bad_alpha)), "alpha[0][0]: 5001-character rational"),
             (("twist", str(lie), "--alpha", str(deep), "--beta", str(wide), "-o", out),
              "deep.json: JSON nested too deeply"),
             (("twist", str(lie), "--alpha", str(wide), "--beta", str(wide), "-o", out),
              "matrix[0][0]: 5001-character rational"),
             (("catalog", "L1", "--a", big, "--b", "1", "-o", out),
              "--a: 5001-character rational")]
    for argv, message in cases:
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and message in result.stderr, result.stderr
    with pytest.raises(ParseError, match="top level: JSON nested too deeply"):
        loads_algebra(deep.read_text())


BIG = "1" + "0" * 5000   # past the interpreter's default integer-string digit limit


def _two_fault_algebras():
    """(name, document) pairs of a dim-3 algebra file with two faults each;
    the first in reading order decides the message."""
    def doc(**faults):
        d = json.loads(dumps_algebra(sl2_bihom()))
        for path, value in faults.items():
            key, *index = path.split("_")
            if not index:
                d[key] = value
                continue
            target = d[key]
            for i in index[:-1]:
                target = target[int(i)]
            target[int(index[-1])] = value
        return d

    return [
        ("bad bracket[2] entry, short alpha",
         doc(bracket_2_0_1="x", alpha=[["1", "0", "0"], ["0", "1", "0"]])),
        ("bad beta entry, alpha past the digit limit", doc(beta_1_2="1/0", alpha_0_0=BIG)),
        ("long bracket row after a comma entry",
         doc(bracket_0_1=["0", "0", "1", "0"], bracket_0_0_2="1,2")),
        ("comma entry beside a fraction in beta", doc(beta_2=["1/3", "0,1", "x"])),
        ("integer alpha entry before a padded one", doc(alpha_2_1=" 1", alpha_1_0=3)),
        ("trailing newline in bracket, beta not a list", doc(bracket_1_1_0="1\n", beta="I")),
        ("alpha row not a list, plus sign in bracket", doc(alpha_0="row", bracket_2_2_2="+1")),
        ("zero denominator in bracket, empty beta entry", doc(bracket_0_0_0="-0/0", beta_0_0="")),
        ("denominator past the digit limit, short bracket plane",
         doc(bracket_1_0_2="1/" + BIG, bracket_2=[["0"] * 3] * 2)),
        ("digit limit before a bad entry in one row", doc(alpha_1=[BIG, "x", "0"])),
        ("bad entry before the digit limit in one row", doc(alpha_1=["x", BIG, "0"])),
        ("bracket plane not a list, bad alpha entry", doc(bracket_1="x", alpha_0_0="1.5")),
        ("float entry, bad later row", doc(beta_0_1=0.5, beta_2=["a", "b", "c"])),
    ]


TWO_FAULT_MATRICES = [
    ("bad entry, ragged later row", [["1", "x", "0"], ["0", "1", "0"], ["0", "1"]]),
    ("ragged row, digit limit in it", [["1", "0"], ["0", BIG, "1"]]),
    ("digit limit, bad later entry", [["1", "0"], [BIG, "0"], ["0", "y"]]),
    ("integer entry, comma entry", [["1", 2], ["3,4", "1"]]),
    ("comma entry in a row of fractions", [["1/2", "3,4/5"], ["0", "1"]]),
    ("null entry", [[None, "0"], ["0", "1"]]),
    ("no rows", []),
    ("row not a list, bad earlier entry", [["1", "0/0"], "row"]),
    ("denominator with a leading zero", [["1/007"]]),
]


PARSE_ERRORS = {   # recorded with the per-entry Fraction reader that preceded the row reader
    "bad bracket[2] entry, short alpha":
        ("ParseError", "bracket[2][0][1]: 'x' is not a rational of the form p or p/q"),
    "bad beta entry, alpha past the digit limit":
        ("ParseError", "alpha[0][0]: 5001-character rational exceeds the "
                       "4300-digit integer limit"),
    "long bracket row after a comma entry":
        ("ParseError", "bracket[0][0][2]: '1,2' is not a rational of the form p or p/q"),
    "comma entry beside a fraction in beta":
        ("ParseError", "beta[2][1]: '0,1' is not a rational of the form p or p/q"),
    "integer alpha entry before a padded one":
        ("ParseError", "alpha[1][0]: 3 is not a rational of the form p or p/q"),
    "trailing newline in bracket, beta not a list":
        ("ParseError", "bracket[1][1][0]: '1\\n' is not a rational of the form p or p/q"),
    "alpha row not a list, plus sign in bracket":
        ("ParseError", "bracket[2][2][2]: '+1' is not a rational of the form p or p/q"),
    "zero denominator in bracket, empty beta entry":
        ("ParseError", "bracket[0][0][0]: '-0/0' is not a rational of the form p or p/q"),
    "denominator past the digit limit, short bracket plane":
        ("ParseError", "bracket[1][0][2]: 5003-character rational exceeds the "
                       "4300-digit integer limit"),
    "digit limit before a bad entry in one row":
        ("ParseError", "alpha[1][0]: 5001-character rational exceeds the "
                       "4300-digit integer limit"),
    "bad entry before the digit limit in one row":
        ("ParseError", "alpha[1][0]: 'x' is not a rational of the form p or p/q"),
    "bracket plane not a list, bad alpha entry":
        ("ParseError", "bracket[1]: expected a list"),
    "float entry, bad later row":
        ("ParseError", "beta[0][1]: 0.5 is not a rational of the form p or p/q"),
    "bad entry, ragged later row":
        ("ParseError", "matrix[0][1]: 'x' is not a rational of the form p or p/q"),
    "ragged row, digit limit in it":
        ("DimensionMismatch", "matrix[1]: expected 2 entries, found 3"),
    "digit limit, bad later entry":
        ("ParseError", "matrix[1][0]: 5001-character rational exceeds the "
                       "4300-digit integer limit"),
    "integer entry, comma entry":
        ("ParseError", "matrix[0][1]: 2 is not a rational of the form p or p/q"),
    "comma entry in a row of fractions":
        ("ParseError", "matrix[0][1]: '3,4/5' is not a rational of the form p or p/q"),
    "null entry":
        ("ParseError", "matrix[0][0]: None is not a rational of the form p or p/q"),
    "no rows":
        ("ParseError", "matrix: expected at least one row"),
    "row not a list, bad earlier entry":
        ("ParseError", "matrix[0][1]: '0/0' is not a rational of the form p or p/q"),
    "denominator with a leading zero":
        ("ParseError", "matrix[0][0]: '1/007' is not a rational of the form p or p/q"),
}


def _first_error(read, path):
    with pytest.raises((ParseError, DimensionMismatch)) as exc:
        read(path)
    return type(exc.value).__name__, str(exc.value)


def test_parse_errors_keep_their_order_and_text(tmp_path):
    """With two faults in one file, load and load_matrix report the first in
    reading order (bracket, alpha, beta; rows in order, entries in order) with
    the message they gave before grids were read into integers. An
    alpha grid whose fault comes first is also read as a bare matrix file."""
    assert sys.get_int_max_str_digits() == 4300
    seen = []
    for name, doc in _two_fault_algebras():
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        kind, message = PARSE_ERRORS[name]
        assert _first_error(load, path) == (kind, message), name
        seen.append(name)
        if message.startswith("alpha["):
            path.write_text(json.dumps(doc["alpha"]))
            assert _first_error(load_matrix, path) == (
                kind, message.replace("alpha", "matrix", 1)), name
    for name, grid in TWO_FAULT_MATRICES:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(grid))
        assert _first_error(load_matrix, path) == PARSE_ERRORS[name], name
        seen.append(name)
    assert sorted(seen) == sorted(PARSE_ERRORS)
