import json
import os

import pytest

from sumrep import cli
from sumrep.cli import main


@pytest.fixture
def range50(tmp_path):
    path = tmp_path / "range50.txt"
    path.write_text("# 0..50\n" + "".join(f"{i}\n" for i in range(51)))
    return str(path)


@pytest.fixture
def sidon(tmp_path):
    path = tmp_path / "sidon.txt"
    path.write_text("0\n1\n3\n7\n")
    return str(path)


@pytest.fixture
def s123(tmp_path):
    path = tmp_path / "s123.txt"
    path.write_text("1\n2\n3\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRep:
    def test_single_n(self, capsys, s123):
        code, out, _ = run(capsys, "rep", "--h", "2", "--n", "4", "--set", s123)
        assert code == 0
        assert out.strip() == "r=2"

    def test_table_csv(self, capsys, s123):
        code, out, _ = run(capsys, "rep", "--h", "2", "--window", "2:6",
                           "--set", s123, "--format", "csv")
        assert code == 0
        assert "n,count" in out
        assert "4,2" in out

    def test_single_n_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("0\n5\n")
        code, out, _ = run(capsys, "rep", "--h", "1200", "--n", "5", "--set", str(path))
        assert (code, out) == (0, "r=1\n")

    def test_requires_exactly_one_target(self, capsys, s123):
        code, _, err = run(capsys, "rep", "--h", "2", "--set", s123)
        assert code == 2
        assert "exactly one" in err

    def test_single_n_past_m_rejected(self, capsys, range50):
        code, out, err = run(capsys, "rep", "--h", "2", "--n", "60",
                             "--mode", "prefix:50", "--set", range50)
        assert code == 2
        assert out == "" and "exceeds" in err
        code, out, _ = run(capsys, "rep", "--h", "2", "--n", "50",
                           "--mode", "prefix:50", "--set", range50)
        assert code == 0 and out.strip() == "r=26"

    @pytest.mark.parametrize("mode, bound", [("complete", 6), ("prefix:4", 4)])
    def test_table_csv_header_names_the_exactness_bound(self, capsys, s123, mode, bound):
        code, out, _ = run(capsys, "rep", "--h", "2", "--window", "2:4", "--mode", mode,
                           "--set", s123, "--format", "csv")
        assert code == 0
        assert out.splitlines() == [f"# h=2 |A|=3 exactness_bound={bound}", "n,count",
                                    "2,1", "3,1", "4,2"]

    @pytest.mark.parametrize("mode, bound", [("complete", 100), ("prefix:50", 50)])
    def test_table_json_exactness_bound(self, capsys, range50, mode, bound):
        code, out, _ = run(capsys, "rep", "--h", "2", "--window", "0:100", "--mode", mode,
                           "--set", range50, "--format", "json", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert doc["exactness_bound"] == bound
        assert doc["window"] == [0, bound]
        assert doc["trimmed"] is (bound < 100)
        counts = dict(doc["counts"])
        assert counts[50] == 26
        assert counts.get(99) == (1 if mode == "complete" else None)  # 99 = 49 + 50 only

    def test_window_cut_at_m(self, capsys, range50):
        args = ("rep", "--h", "2", "--window", "40:60", "--mode", "prefix:50", "--set", range50)
        code, out, _ = run(capsys, *args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# window trimmed to [40, 50]"
        assert lines[1:] == [f"{n} {n // 2 + 1}" for n in range(40, 51)]
        code, out, _ = run(capsys, *args, "--format", "json", "--no-meta")
        doc = json.loads(out)
        assert (doc["window"], doc["trimmed"], doc["exactness_bound"]) == ([40, 50], True, 50)
        assert [n for n, _ in doc["counts"]] == list(range(40, 51))

    def test_window_starting_past_m_rejected(self, capsys, range50):
        code, out, err = run(capsys, "rep", "--h", "2", "--window", "60:70",
                             "--mode", "prefix:50", "--set", range50)
        assert code == 2
        assert out == "" and err.splitlines() == [
            "error: window 60:70 starts past the exactness bound 50"
        ]

    def test_window_inside_m_untouched(self, capsys, range50):
        code, out, _ = run(capsys, "rep", "--h", "2", "--window", "0:50",
                           "--mode", "prefix:50", "--set", range50)
        assert code == 0
        assert out.splitlines() == [f"{n} {n // 2 + 1}" for n in range(51)]

    def test_single_n_has_no_csv_form(self, capsys, s123):
        code, out, err = run(capsys, "rep", "--h", "2", "--n", "4", "--set", s123,
                             "--format", "csv")
        assert code == 2
        assert out == "" and "no csv form" in err

    def test_window_above_the_sums_rejected(self, capsys, s123):
        code, out, err = run(capsys, "rep", "--h", "2", "--window", "100:200", "--set", s123)
        assert code == 2
        assert out == "" and "every count outside that range is 0" in err

    def test_bad_window(self, capsys, s123):
        code, _, err = run(capsys, "rep", "--h", "2", "--window", "oops",
                           "--set", s123)
        assert code == 2


class TestBhs:
    def test_sidon_true(self, capsys, sidon):
        code, out, _ = run(capsys, "bhs", "--h", "2", "--s", "1", "--set", sidon)
        assert code == 0
        assert out.strip() == "B_{2,1}: true"

    def test_violation_exit_one(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0\n1\n3\n4\n")
        code, out, _ = run(capsys, "bhs", "--h", "2", "--s", "1", "--set", str(path))
        assert code == 1
        assert "false" in out
        assert "r(4) = 2" in out


class TestTheorem:
    def test_t1_text(self, capsys, range50):
        code, out, _ = run(capsys, "theorem", "--id", "T1", "--h", "2",
                           "--mode", "prefix:50", "--set", range50)
        assert code == 0
        assert "PASS" in out
        assert "n0=2 k0=1 w0=1" in out

    def test_t1_json_deterministic_without_meta(self, capsys, range50):
        args = ("theorem", "--id", "T1", "--h", "2", "--mode", "prefix:50",
                "--set", range50, "--format", "json", "--no-meta")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["verdict"] == "pass"
        assert "meta" not in doc

    def test_meta_present_by_default(self, capsys, range50):
        code, out, _ = run(capsys, "theorem", "--id", "T1", "--h", "2",
                           "--mode", "prefix:50", "--set", range50,
                           "--format", "json")
        assert code == 0
        assert "timestamp" in json.loads(out)["meta"]

    def test_fail_exit_one(self, capsys, sidon):
        code, out, _ = run(capsys, "theorem", "--id", "T1", "--h", "2",
                           "--set", sidon)
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("mode", ["complete", "prefix:7"])
    def test_x_max_below_h_is_an_input_error(self, capsys, sidon, mode):
        # the premise fails on {0, 1, 3, 7}; a bad --x-max is still exit 2
        code, out, err = run(capsys, "theorem", "--id", "T1", "--h", "4",
                             "--x-max", "2", "--mode", mode, "--set", sidon)
        assert (code, out) == (2, "")
        assert "x_max=2 below x >= h = 4" in err

    @pytest.mark.parametrize("values, mode, window", [
        ("0\n10\n", "prefix:15", "[11, 15]"),
        ("5\n", "prefix:0", "[0, 0]"),
    ])
    def test_vacuous_premise_window_is_an_input_error(self, capsys, tmp_path, values, mode,
                                                      window):
        path = tmp_path / "set.txt"
        path.write_text(values)
        code, out, err = run(capsys, "theorem", "--id", "T1", "--mode", mode,
                             "--set", str(path), "--format", "json")
        assert (code, out) == (2, "")
        assert err == (f"error: premise window {window} ({mode}) holds no sum of 2A; "
                       f"the theorem checks nothing\n")

    def test_csv_export(self, capsys, range50):
        code, out, _ = run(capsys, "theorem", "--id", "T1", "--h", "2",
                           "--mode", "prefix:50", "--set", range50,
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "x,Ax,bound"


class TestPremise:
    def test_find_threshold(self, capsys, range50):
        code, out, _ = run(capsys, "premise", "--h", "2", "--ell", "3",
                           "--mode", "prefix:50", "--set", range50)
        assert code == 0
        assert "[4, 50]" in out and "holds" in out

    def test_explicit_threshold_failure(self, capsys, sidon):
        code, out, _ = run(capsys, "premise", "--h", "2", "--ell", "2",
                           "--n0", "0", "--set", sidon)
        assert code == 1
        assert "fails" in out

    def test_no_threshold_exists(self, capsys, sidon):
        code, out, _ = run(capsys, "premise", "--h", "2", "--ell", "2",
                           "--set", sidon)
        assert code == 1
        assert "no threshold" in out


class TestOtherCommands:
    def test_sumset(self, capsys, s123):
        code, out, _ = run(capsys, "sumset", "--h", "3", "--set", s123)
        assert code == 0
        assert out.split() == ["3", "4", "5", "6", "7", "8", "9"]

    def test_blocks(self, capsys, s123):
        code, out, _ = run(capsys, "blocks", "--h", "2", "--set", s123)
        assert code == 0
        assert out.splitlines()[0] == "k=1 [1,2): 1"

    def test_construct_density_pipeline(self, capsys, tmp_path):
        log_path = str(tmp_path / "log.json")
        code, out, _ = run(capsys, "construct", "--ell", "2", "--T", "300",
                           "--log-out", log_path)
        assert code == 0
        assert "certified: yes" in out
        log = json.loads(open(log_path, encoding="utf-8").read())
        frac = (log["watermark"] - log["n0"]) / log["watermark"]
        assert log["certified_frac"] == frac
        assert f"certified fraction (W-n0)/W: {frac:.12g}" in out
        code, out, _ = run(capsys, "density", "--log", log_path)
        assert code == 0
        assert out.splitlines()[-1] == f"certified fraction (W-n0)/W = {frac:.12g}"
        code, out, _ = run(capsys, "density", "--log", log_path,
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "x,Ax,lower_bound,log_sq_ref"

    def test_vacuous_construct_not_certified(self, capsys, tmp_path):
        # seed {0} at T=3: W=1 and no sum in [n0, W] = [1, 1] is checked
        seed = tmp_path / "seed.txt"
        seed.write_text("0\n")
        log_path = str(tmp_path / "log.json")
        code, out, _ = run(capsys, "construct", "--ell", "2", "--T", "3",
                           "--seed-set", str(seed), "--log-out", log_path)
        assert code == 1
        assert "certified: no" in out
        assert "certified fraction (W-n0)/W: 0\n" in out
        code, _, err = run(capsys, "density", "--log", log_path)
        assert code == 2
        assert "requires a certified construction log" in err

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "4", "--seed", "7")
        assert code == 0
        assert "all checks passed" in out

    def test_out_file(self, capsys, s123, tmp_path):
        target = tmp_path / "out.txt"
        code, _, _ = run(capsys, "rep", "--h", "2", "--n", "4", "--set", s123,
                         "--out", str(target))
        assert code == 0
        assert target.read_text().strip() == "r=2"


@pytest.mark.parametrize("argv", [
    ["sumset", "--h", "2"],
    ["bhs", "--h", "2", "--s", "1"],
    ["premise", "--h", "2", "--ell", "2"],
    ["blocks", "--h", "2"],
    ["construct", "--ell", "2", "--T", "20"],
    ["selftest", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_csv_only_where_a_csv_exists(capsys, s123, argv):
    if argv[0] not in ("construct", "selftest"):
        argv = [*argv, "--set", s123]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == "" and "invalid choice: 'csv'" in err


class TestErrors:
    def test_malformed_set_file_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\nx9\n")
        code, _, err = run(capsys, "rep", "--h", "2", "--n", "4", "--set", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "rep", "--h", "2", "--n", "4",
                           "--set", "/nonexistent/none.txt")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "nope")[0] == 2

    def test_overflow_named(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"{2**63}\n")
        code, _, err = run(capsys, "sumset", "--h", "3", "--set", str(path))
        assert code == 2
        assert "sumset" in err and "64-bit" in err

    def test_bad_mode(self, capsys, s123):
        code, _, err = run(capsys, "bhs", "--h", "2", "--s", "1",
                           "--set", s123, "--mode", "partial:3")
        assert code == 2

    def test_env_thread_cap(self, capsys, s123, monkeypatch):
        monkeypatch.setenv("SUMREP_THREADS", "2")
        code, out, _ = run(capsys, "rep", "--h", "2", "--window", "0:6",
                           "--set", s123, "--format", "csv")
        assert code == 0
        monkeypatch.setenv("SUMREP_THREADS", "zero")
        code, _, err = run(capsys, "rep", "--h", "2", "--window", "0:6",
                           "--set", s123)
        assert code == 2

    @pytest.mark.parametrize("command", ["sumset", "blocks", "bhs", "premise", "theorem"])
    def test_thread_cap_validated_for_every_command(self, capsys, s123, command):
        extra = {"sumset": ["--h", "2"], "blocks": ["--h", "2"],
                 "bhs": ["--h", "2", "--s", "1"], "premise": ["--h", "2", "--ell", "2"],
                 "theorem": ["--id", "T1"]}[command]
        code, out, err = run(capsys, command, *extra, "--set", s123, "--threads", "0")
        assert code == 2
        assert out == "" and "thread cap" in err

    @pytest.mark.parametrize("command", [
        ["bhs", "--h", "2", "--s", "1"],
        ["premise", "--h", "2", "--ell", "2"],
        ["theorem", "--id", "T1"],
        ["rep", "--h", "2", "--window", f"0:{2**61}"],
        ["sumset", "--h", "2"],
    ], ids=lambda argv: argv[0])
    def test_allocation_past_physical_memory_is_an_input_error(self, capsys, tmp_path, command):
        # {0, 2^60} has 2-fold sums up to 2^61: no table or bitmask for it fits
        path = tmp_path / "huge.txt"
        path.write_text(f"0\n{2**60}\n")
        code, out, err = run(capsys, *command, "--set", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "needs about" in err

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_internal_error_exit_three(self, capsys, s123, monkeypatch, exc):
        def boom(args):
            raise exc("simulated")

        monkeypatch.setitem(cli._COMMANDS, "sumset", boom)
        code, _, err = run(capsys, "sumset", "--h", "2", "--set", s123)
        assert code == 3
        assert exc.__name__ in err and "internal error" in err


class TestBadInputFiles:
    """Unreadable input files are input errors (exit 2, one error line),
    never a traceback with exit 1, which means a mathematical "no"."""

    @pytest.fixture
    def log_doc(self, capsys, tmp_path):
        path = tmp_path / "log.json"
        assert run(capsys, "construct", "--ell", "2", "--T", "200", "--log-out", str(path))[0] == 0
        return json.loads(path.read_text())

    def _density(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        code, out, err = run(capsys, "density", "--log", str(path))
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: malformed construction log: ")
        return err

    def test_set_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"1\n\xff\xfe2\n")
        code, out, err = run(capsys, "sumset", "--h", "2", "--set", str(path))
        assert code == 2
        assert out == "" and err.splitlines() == [
            f"error: {path}: not UTF-8 text (invalid start byte at byte 2)"
        ]

    def test_log_not_json(self, capsys, tmp_path):
        assert "JSONDecodeError" in self._density(capsys, tmp_path, "{oops")

    def test_log_missing_key(self, capsys, tmp_path, log_doc):
        del log_doc["horizon"]
        assert "KeyError: 'horizon'" in self._density(capsys, tmp_path, log_doc)

    def test_log_wrongly_typed_field(self, capsys, tmp_path, log_doc):
        log_doc["n0"] = "z"
        assert "'z'" in self._density(capsys, tmp_path, log_doc)

    def test_log_certified_not_a_bool(self, capsys, tmp_path, log_doc):
        log_doc["certified"] = "no"
        err = self._density(capsys, tmp_path, log_doc)
        assert "TypeError: certified must be true or false, got 'no'" in err

    def test_log_certified_with_zero_watermark(self, capsys, tmp_path, log_doc):
        log_doc["watermark"] = 0
        assert "ValueError: watermark 0" in self._density(capsys, tmp_path, log_doc)

    def test_log_certified_with_n0_past_the_watermark(self, capsys, tmp_path, log_doc):
        log_doc["n0"] = log_doc["watermark"] + 1
        assert "0 <= n0 <= watermark" in self._density(capsys, tmp_path, log_doc)

    def test_log_empty_density_curve(self, capsys, tmp_path, log_doc):
        log_doc["density_curve"] = []
        err = self._density(capsys, tmp_path, log_doc)
        assert "density_curve must end at the horizon 200" in err

    def test_log_watermark_not_half_the_horizon(self, capsys, tmp_path, log_doc):
        # otherwise a certified log with horizon 1 leaves density no row at x >= 2
        log_doc["horizon"], log_doc["density_curve"] = 1, [[1, 1]]
        assert "is not floor(horizon/2)" in self._density(capsys, tmp_path, log_doc)
