import json

import pytest

from weldmag import invariants
from weldmag.cli import main

SINGLE = "1: U1+ / 2: O1+"
COMM23 = "1: U1+ U2- U3- U4+ / 2: O1+ O3- / 3: O2- O4+"
COMM223 = "1: U1+ U2- U3+ U4+ U5- U6- U7- U8+ / 2: O1+ O3+ O5- O7- / 3: O2- O4+ O6- O8+"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_milnor_single_index(capsys):
    rc, out, err = run(capsys, "milnor", SINGLE, "--index", "2,1")
    assert rc == 0
    assert out == "mu(2,1) = 1\n"
    assert err == ""
    rc, out, _ = run(capsys, "milnor", SINGLE, "--index", "1")
    assert rc == 0 and out == "mu(1) = 0\n"


def test_milnor_index_json(capsys):
    rc, out, _ = run(capsys, "milnor", SINGLE, "--index", "2,1", "--json")
    obj = json.loads(out)
    assert obj == {"schema": 1, "I": [2, 1], "mu": 1}
    assert rc == 0


def test_milnor_index_takes_no_k_or_max_len(capsys):
    """milnor answers one index: argparse refuses it without --index and
    refuses --k and --max-len, which one invariant does not depend on."""
    for argv in ([SINGLE], [SINGLE, "--json"], [SINGLE, "--index", "2,1", "--k", "1"],
                 [SINGLE, "--index", "2,1", "--max-len", "1"], [SINGLE, "--k", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["milnor", *argv])
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == ""
    # the table is the table command's, k defaulting to 1
    rc, out, _ = run(capsys, "table", COMM23)
    assert rc == 0 and out == run(capsys, "table", COMM23, "--k", "1")[1]
    rc, out, err = run(capsys, "milnor", SINGLE, "--index", "")
    assert rc == 2 and out == "" and "bad index list" in err


def test_table_text_and_json(capsys):
    rc, out, _ = run(capsys, "table", COMM23, "--k", "2", "--max-len", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "mu(3,2,1) = 1" in lines and "mu(2,3,1) = -1" in lines
    assert all(line.startswith("mu(") for line in lines)

    rc, out, _ = run(capsys, "table", SINGLE, "--json")
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["entries"] == [{"I": [2, 1], "mu": 1}]


def test_table_rejects_bad_k(capsys):
    rc, out, err = run(capsys, "table", SINGLE, "--k", "0")
    assert rc == 2
    assert out == ""
    assert err == "error: k must be >= 1, got 0\n"
    for cap in ("1", "-5"):
        rc, out, err = run(capsys, "table", SINGLE, "--max-len", cap, "--json")
        assert (rc, out, err) == (2, "", f"error: max_len must be >= 2, got {cap}\n")


def test_compare_verdicts_and_witness(capsys):
    rc, out, _ = run(capsys, "compare", SINGLE, SINGLE, "--k", "2")
    assert rc == 0 and out == "equal\n"

    rc, out, _ = run(capsys, "compare", SINGLE, "1: / 2:", "--k", "1")
    assert rc == 1
    assert out == "distinct\nwitness: mu(2,1) = 1 vs 0\n"

    rc, out, _ = run(capsys, "compare", SINGLE, "1: / 2:", "--k", "1", "--json")
    obj = json.loads(out)
    assert rc == 1
    assert obj["result"] == "distinct"
    assert obj["witness"] == {"I": [2, 1], "left": 1, "right": 0}


def test_compare_modes_agree(capsys):
    trivial = "1: / 2: / 3:"
    distinct = set()
    for mode in ("table", "longitude", "action"):
        rc, out, _ = run(capsys, "compare", COMM223, trivial, "--k", "1", "--mode", mode)
        assert rc == 0 and out == "equal\n"
        rc, out, _ = run(capsys, "compare", COMM223, trivial, "--k", "2", "--mode", mode)
        assert rc == 1 and out.splitlines()[0] == "distinct"
        distinct.add(out)
    assert distinct == {"distinct\nwitness: mu(2,2,3,1) = 1 vs 0\n"}


def test_compare_table_mode_runs_one_longitude_pass_per_link(capsys, monkeypatch):
    passes = []
    original = invariants.longitude_series

    def counted(code, **kwargs):
        passes.append(code)
        return original(code, **kwargs)

    monkeypatch.setattr(invariants, "longitude_series", counted)
    rc, out, _ = run(capsys, "compare", COMM223, "1: / 2: / 3:", "--k", "2")
    assert rc == 1 and out.startswith("distinct\nwitness:")
    assert len(passes) == 2


def test_compare_runs_one_longitude_pass_per_link_in_every_mode(capsys, monkeypatch):
    passes = []
    original = invariants.longitude_series

    def counted(code, **kwargs):
        passes.append(kwargs["policy"])
        return original(code, **kwargs)

    monkeypatch.setattr(invariants, "longitude_series", counted)
    # the second code of the equal pair is COMM223 after an OC move
    moved = "1: U1+ U2- U3+ U4+ U5- U6- U7- U8+ / 2: O3+ O1+ O5- O7- / 3: O2- O4+ O6- O8+"
    pairs = [
        (COMM223, moved, "2", "equal\n"),
        (COMM223, "1: / 2: / 3:", "2", "distinct\nwitness: mu(2,2,3,1) = 1 vs 0\n"),
        (SINGLE, "1: / 2:", "1", "distinct\nwitness: mu(2,1) = 1 vs 0\n"),
        (COMM23, COMM223, "2", None),
    ]
    for left, right, k, want in pairs:
        outs = set()
        for mode in ("table", "longitude", "action"):
            passes.clear()
            rc, out, _ = run(capsys, "compare", left, right, "--k", k, "--mode", mode)
            assert rc == (0 if out == "equal\n" else 1)
            assert len(passes) == 2, (mode, left, right)
            if mode != "table":
                assert len(set(passes)) == 1 and passes[0].caps == (int(k) + 1,) * passes[0].rank
            outs.add(out)
        assert len(outs) == 1 and (want is None or outs == {want}), outs


def test_degree_flag_is_gone(capsys):
    for argv in (["milnor", SINGLE, "--index", "2,1"], ["table", SINGLE]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--degree", "4"])
        assert exc.value.code == 2


def test_action_text_and_json(capsys):
    rc, out, _ = run(capsys, "action", SINGLE, "--k", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "action rank=2 k=1"
    assert "conjugator 1:" in lines
    assert any(line.startswith("  ") for line in lines)

    rc, out, _ = run(capsys, "action", SINGLE, "--k", "1", "--json")
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["rank"] == 2 and obj["k"] == 1
    assert obj["conjugators"][0]["series"] == [["1", 1], ["X2", 1]]
    assert obj["images"][1]["series"] == [["1", 1], ["X2", 1]]


def test_realize_inline_and_file(capsys, tmp_path):
    rc, out, _ = run(capsys, "realize", "1: a2 / 2: -")
    assert rc == 0
    assert out == "1: U1+\n2: O1+\n"

    src = tmp_path / "words.txt"
    src.write_text("1: a2 A3 A2 a3\n2: -\n3: -\n")
    dst = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "realize", str(src), "-o", str(dst))
    assert rc == 0 and out == ""
    assert dst.read_text() == COMM23.replace(" / ", "\n") + "\n"

    rc, out, _ = run(capsys, "realize", "1: a2 / 2: -", "--json")
    assert json.loads(out) == {"schema": 1, "code": ["1: U1+", "2: O1+"]}


def test_realize_json_goes_to_output_file(capsys, tmp_path):
    dst = tmp_path / "code.json"
    rc, out, _ = run(capsys, "realize", "1: a2 / 2: -", "--json", "-o", str(dst))
    assert rc == 0 and out == ""
    assert json.loads(dst.read_text()) == {"schema": 1, "code": ["1: U1+", "2: O1+"]}


def test_hall_basis_and_factor(capsys):
    rc, out, _ = run(capsys, "hall", "--rank", "2", "--max-len", "3")
    assert rc == 0
    assert out.splitlines() == ["a1", "a2", "[a1,a2]", "[a1,[a1,a2]]", "[a2,[a1,a2]]"]

    rc, out, _ = run(capsys, "hall", "--rank", "2", "--max-len", "2", "--factor", "a1 a2 A1 A2")
    assert rc == 0
    assert out == "[a1,a2] ^ -1\ncertified\n"

    rc, out, _ = run(capsys, "hall", "--rank", "2", "--max-len", "2", "--factor", "a1 a2 A1 A2", "--json")
    obj = json.loads(out)
    assert obj["certified"] is True
    assert obj["factors"] == [{"bracket": "[a1,a2]", "exp": -1}]

    rc, _, err = run(capsys, "hall", "--rank", "0", "--max-len", "2")
    assert rc == 2 and err.startswith("error:")


def test_moves_list_and_apply(capsys, tmp_path):
    rc, out, _ = run(capsys, "moves", COMM23, "--kind", "OCswap")
    assert rc == 0
    assert out.splitlines()[0] == "0: (2, 0)"

    rc, out, _ = run(capsys, "moves", COMM23, "--kind", "OCswap", "--apply", "0")
    assert rc == 0
    assert out.splitlines()[1] == "2: O3- O1+"

    dst = tmp_path / "moved.txt"
    rc, out, _ = run(capsys, "moves", COMM23, "--kind", "OCswap", "--apply", "0", "-o", str(dst))
    assert rc == 0 and out == ""
    assert "O3- O1+" in dst.read_text()

    rc, _, err = run(capsys, "moves", COMM23, "--kind", "OCswap", "--apply", "99")
    assert rc == 2 and "out of range" in err

    rc, out, _ = run(capsys, "moves", COMM23, "--kind", "R1delete", "--json")
    assert json.loads(out) == {"schema": 1, "kind": "R1delete", "sites": []}


def test_moves_output_needs_apply_and_apply_needs_a_site(capsys, tmp_path):
    dst = tmp_path / "out.txt"
    rc, out, err = run(capsys, "moves", SINGLE, "--kind", "R1delete", "-o", str(dst))
    assert rc == 2 and out == "" and err == "error: -o has no effect without --apply\n"
    assert not dst.exists()
    rc, out, err = run(capsys, "moves", SINGLE, "--kind", "R1delete", "--apply", "0")
    assert rc == 2 and out == "" and err == "error: no R1delete site\n"


def test_moves_apply_json_goes_to_output_file(capsys, tmp_path):
    dst = tmp_path / "moved.json"
    argv = ("moves", COMM23, "--kind", "OCswap", "--apply", "0", "--json")
    rc, out, _ = run(capsys, *argv, "-o", str(dst))
    assert rc == 0 and out == ""
    obj = json.loads(dst.read_text())
    assert obj["kind"] == "OCswap" and obj["site"] == [2, 0]
    assert obj["code"][1] == "2: O3- O1+"
    rc, out, _ = run(capsys, *argv)
    assert json.loads(out) == obj


def test_link_vanishing_exit_codes(capsys):
    rc, out, _ = run(capsys, "link-vanishing", "1: / 2:", "--k", "2")
    assert rc == 0 and out == "vanishing\n"

    rc, out, _ = run(capsys, "link-vanishing", SINGLE, "--k", "1")
    assert rc == 1 and out == "non-vanishing\n"

    rc, out, _ = run(capsys, "link-vanishing", SINGLE, "--k", "1", "--json")
    assert rc == 1
    assert json.loads(out) == {"schema": 1, "k": 1, "result": "non-vanishing"}

    rc, out, _ = run(capsys, "link-vanishing", COMM223, "--k", "1", "--basepoints", "1,0,0")
    assert rc == 0 and out == "vanishing\n"
    rc, out, _ = run(capsys, "link-vanishing", COMM223, "--k", "2")
    assert rc == 1 and out == "non-vanishing\n"


def test_bad_basepoint_list_exits_2(capsys):
    rc, out, err = run(capsys, "link-vanishing", SINGLE, "--basepoints", "x")
    assert rc == 2 and out == ""
    assert err == "error: bad basepoint list 'x'; expected comma-separated integers\n"


def test_hall_bad_sizes_report_the_basis_error(capsys):
    rc, out, err = run(capsys, "hall", "--rank", "0", "--max-len", "2")
    assert (rc, out, err) == (2, "", "error: rank must be positive, got 0\n")
    rc, out, err = run(capsys, "hall", "--rank", "2", "--max-len", "0", "--factor", "a1")
    assert (rc, out, err) == (2, "", "error: max_len must be at least 1, got 0\n")


def test_error_paths_use_stderr(capsys):
    rc, out, err = run(capsys, "table", "1: U9&+ / 2: O9+")
    assert rc == 2
    assert out == ""
    assert err == "error: bad passage token 'U9&+'\n"

    rc, _, err = run(capsys, "milnor", SINGLE, "--index", "2,x")
    assert rc == 2 and "bad index list" in err

    rc, _, err = run(capsys, "milnor", SINGLE, "--index", "9,1")
    assert rc == 2 and "out of range" in err


def test_memory_error_exits_2_without_output(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(invariants, "milnor_table", exhausted)
    rc, out, err = run(capsys, "table", SINGLE, "--k", "2")
    assert rc == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_action_failing_late_exits_2_without_output(capsys, monkeypatch):
    """The text answer starts with a header known before the residues are
    formed; nothing of it is written when forming them fails."""
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(invariants, "_residues", exhausted)
    for argv in (["action", SINGLE, "--k", "1"], ["action", SINGLE, "--k", "1", "--json"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", "error: out of memory\n"), argv


def test_code_argument_reads_files(capsys, tmp_path):
    path = tmp_path / "code.gauss"
    path.write_text("1: U1+\n2: O1+\n")
    rc, out, _ = run(capsys, "table", str(path))
    assert rc == 0 and out == "mu(2,1) = 1\n"


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", COMM23, "--k", "2", "--json")
    second = run(capsys, "table", COMM23, "--k", "2", "--json")
    assert first == second
