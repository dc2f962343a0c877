import json
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import BiHomAlgebra, check_all, conjugate_algebra
from bihomlie.catalog import direct_sum, make_L1, make_L3, sl2_bihom
from bihomlie.errors import DimensionMismatch, ParseError
from bihomlie.exactlin import MatrixQ
from bihomlie.fileio import dumps_algebra, load, loads_algebra, save
from conftest import random_invertible


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "bihomlie", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "l1.json"
    algebra = make_L1(2, 3)
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


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    import argparse

    from bihomlie import cli
    built, add_subparsers = [], argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):   # called once per parser that main builds
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    try:
        path = tmp_path / "sl2.json"
        assert cli.main(["catalog", "sl2", "-o", str(path)]) == 0
        assert cli.main(["check", "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"]
        assert built == ["bihomlie"]
    finally:
        cli.build_parser.cache_clear()


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
                      alpha=MatrixQ.zeros(2, 2), beta=MatrixQ.identity(2)), src)
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
    from bihomlie import algebra, cli

    calls = {"axiom": 0, "lie": 0}

    def counting(key, kernel):
        def wrapper(*args):
            calls[key] += 1
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(algebra, "_axiom_kernel", counting("axiom", algebra._axiom_kernel))
    monkeypatch.setattr(algebra, "_lie_kernel", counting("lie", algebra._lie_kernel))
    regular = direct_sum([make_L1(2, 3), make_L3(5)])
    basis = random_invertible(3, random.Random(8))
    blocks = MatrixQ([[basis.entries[i % 3][j % 3] if i // 3 == j // 3 else 0
                       for j in range(6)] for i in range(6)])
    path = tmp_path / "sum.json"
    save(conjugate_algebra(regular, blocks), path)
    assert cli.main(["analyze", "--json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regular"] and doc["induced"]["decomposition"]["m"] == 2
    assert calls == {"axiom": 1, "lie": 1}
    # the report lives on the loaded object: a second load is verified again
    first, second = load(path), load(path)
    assert check_all(first) is check_all(first)
    check_all(second)
    assert calls["axiom"] == 3


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
