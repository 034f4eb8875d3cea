"""Command-line interface: exit codes, pipelines, output formats."""

import hashlib
import json
import subprocess
import sys
from itertools import chain

import pytest

from addbasis.cli import main


NATURALS = {"modulus": 2, "residues": [0, 1]}  # N, written mod 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrderCommand:
    def test_order_of_a_basis(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(
            {"finite": [], "threshold": 0, "modulus": 8, "residues": [1, 4]}))
        code, out, _ = run_cli(capsys, "order", str(path), "--json")
        assert code == 0
        assert json.loads(out)["order"] == 7

    def test_non_basis_exits_with_engine_error(self, tmp_path, capsys):
        path = tmp_path / "evens.json"
        path.write_text(json.dumps(
            {"finite": [], "threshold": 0, "modulus": 2, "residues": [0]}))
        code, _, err = run_cli(capsys, "order", str(path))
        assert code == 2
        assert "not an asymptotic basis" in err

    def test_method_flag(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"modulus": 5, "residues": [2, 4]}))
        for method in ("bitset", "residue"):
            code, out, _ = run_cli(capsys, "order", str(path),
                                   "--method", method, "--json")
            assert code == 0 and json.loads(out)["order"] == 4
        # exactly two engines: any other name is refused by argparse
        code, _, err = run_cli(capsys, "order", str(path), "--method", "auto")
        assert code == 1 and "invalid choice" in err


class TestConstructAndVerify:
    def test_pipeline_construct_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "cubic",
                               "--d", "1", "--k", "2")
        assert code == 0
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", str(inst_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["g"] == 7
        assert all(v for v in payload["flags"].values() if v is not None)

    def test_quadratic_constructor(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "quadratic",
                               "--h", "2", "--mu", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["X"] == [0, 1]
        assert payload["A"]["modulus"] == 5

    def test_invariants_command(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "cubic",
                               "--d", "1", "--k", "2")
        path = tmp_path / "inst.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "invariants", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"delta": 2, "diam": 2, "d": 1, "eta": 3,
                                   "mu": 2, "eta_witness": [1, 4],
                                   "mu_witness": 1}

    def test_stdin_pipeline_subprocess(self):
        construct = subprocess.run(
            [sys.executable, "-m", "addbasis", "construct", "cubic",
             "--d", "1", "--k", "2"],
            capture_output=True, text=True, check=True)
        verify = subprocess.run(
            [sys.executable, "-m", "addbasis", "verify", "-", "--json"],
            input=construct.stdout, capture_output=True, text=True)
        assert verify.returncode == 0
        payload = json.loads(verify.stdout)
        assert payload["g"] == 7
        assert all(v for v in payload["flags"].values() if v is not None)


class TestSweepCommand:
    def test_sweep_with_csv(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "quadratic", "ranges": {"h": [2, 3], "mu": [2]},
            "h_cap": 64, "out": str(out)}))
        csv_path = tmp_path / "records.csv"
        code, text, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                                "--csv", str(csv_path), "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["records_written"] == 2
        assert payload["csv_rows"] == 2
        assert csv_path.exists()

    @pytest.mark.parametrize("field,value", [
        ("ratio_mu", "1/0"), ("params", ...)])
    def test_corrupt_row_on_resume_is_engine_error(self, tmp_path, capsys,
                                                   field, value):
        out = tmp_path / "two.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "two_residue",
                                   "ranges": {"n_max": 4}, "out": str(out),
                                   "resume": True}))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        lines = out.read_text().splitlines(keepends=True)
        row = json.loads(lines[-1])
        if value is ...:
            del row[field]
        else:
            row[field] = value
        out.write_text("".join(lines[:-1]) + json.dumps(row) + "\n")
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "corrupt sweep file" in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("case", ["duplicated", "swapped", "foreign"])
    def test_misplaced_row_on_resume_is_engine_error(self, tmp_path, capsys,
                                                     case):
        out = tmp_path / "two.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "two_residue",
                                   "ranges": {"n_max": 5}, "out": str(out),
                                   "resume": True}))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        lines = out.read_text().splitlines(keepends=True)
        # a duplicated or swapped row in a prefix of the file, or a
        # well-formed record of no instance of this sweep appended to it
        if case == "duplicated":
            lines = lines[:4] + [lines[3]]
        elif case == "swapped":
            lines = [lines[0], lines[2], lines[1]]
        else:
            row = json.loads(lines[-1])
            row.update(params={"n": 5, "a": 0, "b": 1, "x": [0, 99]},
                       ratio_mu=100)
            lines.append(json.dumps(row) + "\n")
        out.write_text("".join(lines))
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "corrupt sweep file" in err
        assert out.read_bytes() == before

    def test_resume_without_header_is_engine_error(self, tmp_path, capsys):
        out = tmp_path / "two.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "two_residue",
                                   "ranges": {"n_max": 4}, "out": str(out),
                                   "resume": True}))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        out.write_bytes(b"".join(out.read_bytes().splitlines(True)[1:]))
        before = out.read_bytes()  # its first line is a row
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and "missing sweep header" in err
        assert out.read_bytes() == before

    def test_csv_without_out_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "cubic"}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg),
                                    "--csv", str(tmp_path / "r.csv"))
        assert code == 1 and "'out'" in err and stdout == ""
        assert not (tmp_path / "r.csv").exists()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "unheard-of"}))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1


class TestKlopschLevCommand:
    def test_small_run(self, capsys):
        # sha256 of the output of the enumeration over every subset,
        # before it checked one subset per orbit; the n <= 20 digest is
        # of the enumeration that checked one subset per dilation orbit
        for argv, digest in [
            (["--n-max", "12", "--parallelism", "2", "--json"],
             "217c457459c29fbf7280f47ef86dd878"
             "e12de79cc76b9df4684880421522a77f"),
            (["--n-max", "16", "--parallelism", "2", "--json"],
             "6a1c7a7568ab07794ec77eb5fbd797f3"
             "d4a8bcfa7dabf26b0c2e06b70308ff2d"),
            (["--n-max", "20", "--parallelism", "2", "--json"],
             "6430d25dd4800ae50ac116bc435e307d"
             "25c5e0e1bda590a464b654b8d8bf6e07"),
            (["--n-max", "10"],
             "312dbf725c3a7d280e6501a196a3845d"
             "75132e166d77e93c1efb8e45b557f037"),
        ]:
            code, out, _ = run_cli(capsys, "klopsch-lev", *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "klopsch-lev", "--n-max", "6")
        assert code == 0 and "0 violations" in out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert main(["order", "/nonexistent/set.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["order", str(path)]) == 1

    @pytest.mark.parametrize("field,value", [
        ("modulus", 2.0), ("threshold", True), ("X", 5), ("X", None),
        ("finite", None), ("modulus", "3"), ("threshold", 2.5)])
    def test_mistyped_instance_field(self, tmp_path, capsys, field, value):
        # N written mod 2, minus {0}: well typed, it verifies with exit 0
        inst = {"A": {"finite": [], "threshold": 0, "modulus": 2,
                      "residues": [0, 1]}, "X": [0], "label": "N"}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        assert run_cli(capsys, "verify", str(path))[0] == 0
        if field == "X":
            inst["X"] = value
        else:
            inst["A"][field] = value
        path.write_text(json.dumps(inst))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert repr(field) in err

    @pytest.mark.parametrize("field,value", [
        ("A", json.dumps({"modulus": 2, "residues": [0, 1]})),  # JSON text
        ("A", 5), ("label", {"a": 1})])
    def test_mistyped_instance_object_or_label(self, tmp_path, capsys,
                                               field, value):
        # "A" must be an object, not a string holding one, and "label" a
        # string; each is refused naming its field
        inst = {"A": {"modulus": 2, "residues": [0, 1]}, "X": [0],
                "label": "N"}
        inst[field] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        code, stdout, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert repr(field) in err and stdout == ""

    @pytest.mark.parametrize("argv,payload,what", [
        (["order"], NATURALS, "set"),
        (["invariants"], {"A": NATURALS, "X": [0]}, "instance"),
        (["verify"], {"A": NATURALS, "X": [0]}, "instance"),
        (["sweep", "--config"],
         {"family": "two_residue", "ranges": {"n_max": 4}}, "sweep config")])
    @pytest.mark.parametrize("as_text", [True, False])
    def test_input_that_is_no_object(self, tmp_path, capsys, argv, payload,
                                     what, as_text):
        # each input is parsed once: the object is read, but the same
        # object written as a JSON string is refused like an array is,
        # naming what the input stands for
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        assert run_cli(capsys, *argv, str(path))[0] == 0
        wrong = json.dumps(payload) if as_text else [1, 2]
        path.write_text(json.dumps(wrong))
        code, stdout, err = run_cli(capsys, *argv, str(path))
        assert code == 1 and stdout == ""
        assert err == f"usage error: {what} must be an object, got {wrong!r}\n"

    @pytest.mark.parametrize("command", ["order", "verify"])
    @pytest.mark.parametrize("h_cap", ["0", "-5"])
    def test_cap_below_one(self, tmp_path, capsys, command, h_cap):
        _, out, _ = run_cli(capsys, "construct", "cubic",
                               "--d", "1", "--k", "2")
        inst = json.loads(out)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(inst["A"] if command == "order" else inst))
        assert run_cli(capsys, command, str(path))[0] == 0
        code, _, err = run_cli(capsys, command, str(path), "--h-cap", h_cap)
        assert code == 1 and err.startswith("usage error:")
        assert "h_cap" in err

    @pytest.mark.parametrize("field,value", [
        ("h_cap", "64"), ("h_cap", True), ("ranges", [1, 2]), ("out", 5),
        ("resume", "no"), ("parallelism", 2.5),
        ("mu", {"min": 2.7, "max": 2.9}), ("--parallelism", 0),
        ("--n-max", 29)])
    def test_mistyped_sweep_field(self, tmp_path, capsys, field, value):
        if field.startswith("--"):  # an option of klopsch-lev
            opts = {"--n-max": "5", "--parallelism": "1"}
            assert run_cli(capsys, "klopsch-lev", *chain(*opts.items()))[0] == 0
            opts[field] = str(value)
            code, _, err = run_cli(capsys, "klopsch-lev", *chain(*opts.items()))
        else:
            # well typed, this config sweeps one instance with exit 0
            cfg = {"family": "quadratic", "h_cap": 64, "parallelism": 1,
                   "ranges": {"h": [2], "mu": {"min": 2, "max": 2}},
                   "out": str(tmp_path / "q.jsonl"), "resume": False}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
            (cfg["ranges"] if field == "mu" else cfg)[field] = value
            path.write_text(json.dumps(cfg))
            code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert field.lstrip("-").replace("-", "_") in err

    @pytest.mark.parametrize("family,ranges", [
        ("two_residue", {"n_max": 1}),
        ("cubic", {"d": {"min": 3, "max": 1}}),
        ("quadratic", {"h": []})])
    def test_empty_sweep_config(self, tmp_path, capsys, family, ranges):
        # a config that enumerates nothing is refused before ``out`` is
        # opened, so an existing results file stays as it was
        out = tmp_path / "kept.jsonl"
        out.write_text("earlier results\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": family, "ranges": ranges,
                                    "out": str(out)}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert "enumerates no" in err and stdout == ""
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("family,ranges", [
        ("cubic", {"dd": [1, 2, 3], "K": [5]}),
        ("two_residue", {"n_max": 3, "n": [9]})])
    def test_unknown_range_axis(self, tmp_path, capsys, family, ranges):
        # an axis the family lacks is refused before ``out`` is opened,
        # not ignored in favour of the defaults
        out = tmp_path / "kept.jsonl"
        out.write_text("earlier results\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": family, "ranges": ranges,
                                    "out": str(out)}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert "no range axis" in err and stdout == ""
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("command,payload,key", [
        # a typo of "finite": read as the set without {0, 2}, of order 7
        ("order", {"finit": [0, 2], "threshold": 3, "modulus": 8,
                   "residues": [1, 4]}, "finit"),
        ("verify", {"A": {"modulus": 2, "residues": [0, 1]}, "X": [0],
                    "x": [1]}, "x"),
        ("verify", {"A": {"modulus": 2, "residue": [0, 1]}, "X": [0]},
         "residue")])
    def test_unknown_set_or_instance_key(self, tmp_path, capsys, command,
                                         payload, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        code, stdout, err = run_cli(capsys, command, str(path))
        assert code == 1 and err.startswith("usage error:")
        assert repr(key) in err and stdout == ""

    @pytest.mark.parametrize("extra,key", [
        ({"resum": True}, "resum"),
        ({"family": "cubic", "ranges": {"k": {"min": 2, "max": 4,
                                              "step": 2}}}, "step")])
    def test_unknown_config_key_keeps_the_results(self, tmp_path, capsys,
                                                  extra, key):
        # refused before ``out`` is opened: "resum" is not read as a fresh
        # sweep that truncates the results
        out = tmp_path / "r.jsonl"
        cfg = {"family": "two_residue", "ranges": {"n_max": 4},
               "out": str(out)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
        before = out.read_bytes()
        path.write_text(json.dumps({**cfg, **extra}))
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and err.startswith("usage error:")
        assert repr(key) in err and stdout == ""
        assert out.read_bytes() == before


class TestViolationExitCode:
    def test_bound_violation_maps_to_exit_3(self, tmp_path, capsys,
                                            monkeypatch):
        # no honest instance can violate a proven bound, so simulate one
        # to pin the exit-code contract
        from addbasis.errors import BoundViolation
        import addbasis.cli as cli_mod

        def explode(*args, **kwargs):
            raise BoundViolation("synthetic violation for exit-code test")

        monkeypatch.setattr(cli_mod, "verify_instance", explode)
        code, out, _ = run_cli(capsys, "construct", "cubic",
                               "--d", "1", "--k", "2")
        path = tmp_path / "inst.json"
        path.write_text(out)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3 and "BOUND VIOLATION" in err
