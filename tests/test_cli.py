import hashlib
import io
import json
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial
from importlib import resources

import pytest

from padiczeta.cli import main
from padiczeta.padic import PadicContext, from_json_dict
from padiczeta.report import (
    VerificationReport,
    compare_exact,
    compare_values,
    report_to_json_line,
    report_writer,
)
from padiczeta.verify import _BUILDERS, VerifyConfig, default_slack, load_slack
from padiczeta.zeta_czp import _zeta_value


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_zeta_czp_at_one(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--p", "5", "--prec", "12", "zeta-czp", "--s", "1", "--x", "1/5"],
            capsys,
        )
        assert code == 0
        assert out.startswith("5^0 * (1")

    def test_euler_number(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--p", "5", "--prec", "12", "euler-number", "--m", "4"], capsys
        )
        assert code == 0 and out.strip() == "5"

    def test_euler_poly(self, capsys):
        code, out, _ = run_cli(
            ["compute", "euler-poly", "--m", "1", "--x", "3"], capsys
        )
        assert code == 0 and out.strip() == "5/2"

    def test_teichmuller_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            [
                "compute", "--p", "5", "--prec", "4", "--guard", "0",
                "teichmuller", "--x", "2", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        value = from_json_dict(payload["value"])
        assert value.integer_rep(4) == 182

    def test_ell_matches_library(self, capsys):
        code, out, _ = run_cli(
            [
                "compute", "--p", "5", "--prec", "12",
                "ell", "--char", "1:1", "--s", "2", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        from padiczeta.characters import DirichletCharacter
        from padiczeta.padic import agreement_depth
        from padiczeta.zeta_char import ell_limit_oracle

        ctx = PadicContext(5, 12)
        value = from_json_dict(json.loads(out)["value"])
        oracle = ell_limit_oracle(ctx, DirichletCharacter(5, 1, 1), 2, 5)
        assert agreement_depth(value, oracle) >= 5

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            ["compute", "--p", "5", "zeta-czp", "--s", "1", "--x", "3"], capsys
        )
        assert code == 2
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"]["code"] == "ArgumentInZp"

    def test_missing_operand(self, capsys):
        code, _, err = run_cli(["compute", "zeta-czp", "--s", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "euler-number", "--m", "-1"],
            ["compute", "euler-poly", "--m", "-3", "--x", "1/2"],
            ["table", "euler", "--max", "-1"],
        ],
    )
    def test_negative_euler_degree_exit_code(self, capsys, args):
        run_cli(["compute", "euler-number", "--m", "30"], capsys)  # a warm list must not answer
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "DegreeOverflow"

    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "euler-number", "--m", "100000000"],
            ["compute", "euler-poly", "--m", "100000000", "--x", "1/2"],
            ["table", "euler", "--max", "100000000"],
        ],
    )
    def test_huge_euler_degree_refused_fast(self, capsys, args):
        # the triangle row would hold about n^2 log2(n) bits: refused before it grows
        start = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "DegreeOverflow"

    def test_high_precision_zeta_czp_is_fast_and_unchanged(self):
        # 400 digits need E_i(0) for i up to about 800; a fresh process builds
        # them from the integer triangle
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "padiczeta.cli", "compute", "--p", "3", "--prec", "400",
             "zeta-czp", "--s", "1/2", "--x", "1/3"],
            capture_output=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == "b3126040f16d8010bb8f64609b1d452dfa26d9da9b1502ead23b6ab36a939e2a"
        assert elapsed < 5, elapsed

    @pytest.mark.parametrize(
        "args, code",
        [
            # the term budget is checked before any Teichmuller or log/exp work
            (["--prec", "100000", "zeta-czp", "--s", "1/2", "--x", "2/3"], "BudgetExhausted"),
            (["--prec", "100000", "zeta-char", "--char", "1:1", "--s", "2", "--x", "2"],
             "BudgetExhausted"),
            # p**100000008 is never built: the context refuses its size
            (["--prec", "100000000", "zeta-czp", "--s", "1/2", "--x", "2/3"], "InvalidArgument"),
            # nor p**v for a digit literal of valuation v: refused as it is read
            (["zeta-czp", "--s=100000000000:1", "--x", "1/3"], "ParseError"),
            (["zeta-czp", "--s", "2", "--x=-100000000000:1"], "ParseError"),
            (["zeta-char", "--char", "1:1", "--s=100000000000:1", "--x", "1"], "ParseError"),
        ],
    )
    def test_huge_precision_refused_fast(self, args, code):
        proc = subprocess.run(
            [sys.executable, "-m", "padiczeta.cli", "compute", "--p", "3", *args],
            capture_output=True,
            timeout=10,
        )
        assert proc.returncode == 2 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"]["code"] == code

    def test_large_character_modulus_prints_the_v_one_value(self, capsys):
        # zeta_char sums over p residues whatever v is, so a modulus of 3^13
        # or 3^1000000 costs what 3^1 does and gives the same bytes
        def run(label):
            args = ["compute", "--p", "3", "zeta-char", "--char", label, "--s", "2", "--x", "1"]
            start = time.perf_counter()
            code, out, _ = run_cli(args, capsys)
            return code, out, time.perf_counter() - start

        code, expected, _ = run("1:1")
        assert code == 0 and expected
        for label in ("13:1", "1000000:1"):
            code, out, elapsed = run(label)
            assert (code, out) == (0, expected)
            assert elapsed < 5


class TestVerifyCommand:
    def test_small_identity_passes(self, capsys):
        code, out, err = run_cli(
            ["verify", "--p", "3", "--prec", "12", "--identity", "functional-czp"],
            capsys,
        )
        assert code == 0
        assert "functional-czp" in out and "fail" not in out

    def test_json_stream_parses(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "--p", "5", "--prec", "12", "--format", "json",
                "--identity", "euler-exact,zeta-one",
            ],
            capsys,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(obj["status"] == "pass" for obj in lines)
        assert {obj["identity"] for obj in lines} >= {"euler-conversion", "zeta-one"}

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(["verify", "--identity", "nope"], capsys)
        assert code == 2

    def test_list_identities(self, capsys):
        code, out, _ = run_cli(["verify", "--list-identities"], capsys)
        assert code == 0
        assert out.split() == [
            "euler-exact",
            "alternating-sum",
            "shift-integral",
            "integral-convergence",
            "zeta-one",
            "special-neg",
            "special-pos",
            "oracle-czp",
            "oracle-char",
            "ell-oracle",
            "ell-even-zero",
            "functional-czp",
            "reflection-czp",
            "distribution-czp",
            "derivative-czp",
            "shifted-expansion",
            "raabe-czp",
            "char-suite",
            "special-char",
            "derivative-char",
            "representation-char",
            "power-series-char",
            "raabe-char",
            "change-of-variable",
        ]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_csv_and_text_bytes_pinned(self, tmp_path, fmt):
        # exact, p-adic, oracle and informational reports in the two layouts
        # that JSON does not pin
        path = tmp_path / f"verify.{fmt}"
        argv = [
            "verify", "--p", "5", "--prec", "12", "--oracle-depth", "3", "--seed", "7",
            "--report-both-forms", "--identity", "euler-exact,special-pos,raabe-czp,char-suite",
            "--format", fmt, "-o", str(path),
        ]
        assert main(argv) == 0
        pinned = {
            "csv": "925fc23a9e31eb79be7794a7f984dc8643e0184539a7c5d2efecd0967d6bb4fb",
            "text": "5bcb9d9d85273fb0607849cce740d687f710622e366f483b13a32dd85b11000f",
        }
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[fmt]

    def test_cold_and_warm_value_cache_bytes(self, tmp_path):
        # the second run reads every series value from the first run's cache
        argv = [
            "verify", "--p", "5", "--prec", "12", "--oracle-depth", "3", "--seed", "7",
            "--format", "json", "--identity",
            "char-suite,raabe-char,representation-char,power-series-char,derivative-char",
        ]
        _zeta_value.cache_clear()
        outputs = []
        for run in ("cold", "warm"):
            path = tmp_path / f"{run}.jsonl"
            assert main(argv + ["-o", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert (
            hashlib.sha256(outputs[0]).hexdigest()
            == "c6338a8fc16a96a4f848af4a8acb7ff2faae24b5f2e8bcc7990a187cce7916e7"
        )
        info = _zeta_value.cache_info()
        assert info.hits > info.misses

    def test_json_stdout_bytes_equal_the_output_file(self, tmp_path):
        # every command writes the same bytes to stdout as to -o PATH
        verify = ["verify", "--p", "5", "--prec", "12", "--identity", "euler-exact,zeta-one"]
        table = ["table", "zeta-values", "--p", "5", "--s-list", "0,2", "--x-list", "1/5,2/5"]
        commands = [
            verify + ["--format", "json"],
            ["compute", "--p", "5", "zeta-czp", "--s", "2", "--x", "1/5", "--format", "json"],
            ["compute", "--p", "5", "euler-poly", "--m", "4", "--x", "1/3"],
            table + ["--format", "json"],
            table + ["--format", "csv"],
            ["table", "ell-values", "--p", "7", "--s-list", "0,2", "--format", "json"],
        ]
        path = tmp_path / "out"
        for argv in commands:
            cli = [sys.executable, "-m", "padiczeta.cli", *argv]
            proc = subprocess.run(cli + ["-o", str(path)], capture_output=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
            proc = subprocess.run(cli, capture_output=True)
            assert proc.returncode == 0 and proc.stdout
            assert proc.stdout == path.read_bytes()
            if argv[0] == "verify":
                lines = len(proc.stdout.splitlines())
                assert proc.stderr == b"%d checks, 0 failed\n" % lines
            else:
                assert proc.stderr == b""

    def test_refused_run_leaves_the_output_file_alone(self, capsys, tmp_path):
        # each command writes into the unnamed file before it is refused:
        # zeta-one's reports are built before oracle-czp refuses 3^13 terms,
        # and the table's first row before x = 1, which lies in Z_3
        path = tmp_path / "keep.jsonl"
        path.write_bytes(b"keep\n")
        argv = ["verify", "--p", "3", "--identity", "zeta-one,oracle-czp", "--oracle-depth"]
        table = ["table", "zeta-values", "--p", "3", "--s-list", "2", "--x-list", "1/3,1"]
        refused = [
            (argv + ["13"], "EvaluationCapExceeded"),
            (table, "ArgumentInZp"),
            (["compute", "--p", "5", "zeta-czp", "--s", "1", "--x", "3"], "ArgumentInZp"),
        ]
        for command, error in refused:
            code, out, err = run_cli(command + ["-o", str(path)], capsys)
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["code"] == error
            assert path.read_bytes() == b"keep\n"
            assert list(tmp_path.iterdir()) == [path]
        # a run whose reports fail (exit 1) still writes every one of them
        fixture = tmp_path / "tight.json"
        fixture.write_text('{"families": {"oracle-czp": -3}}')
        argv += ["3", "--slack-fixture", str(fixture), "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        lines = out.splitlines()
        failed = sum(json.loads(line)["status"] == "fail" for line in lines)
        assert failed and err == f"{len(lines)} checks, {failed} failed\n"
        assert run_cli(argv + ["-o", str(path)], capsys)[:2] == (1, "")
        assert path.read_text() == out

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        path = tmp_path / "missing" / "v.jsonl"
        code, out, err = run_cli(
            ["verify", "--p", "5", "--identity", "zeta-one", "-o", str(path)], capsys
        )
        assert code == 3 and out == ""
        assert err.startswith("I/O error")

    def test_reports_are_dropped_once_written(self, tmp_path, monkeypatch):
        # no more reports are alive at once than the longest list one check
        # returns: the run is never held in memory
        alive = peak = 0
        refs = set()

        def dropped(ref):
            nonlocal alive
            alive -= 1
            refs.discard(ref)

        init = VerificationReport.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal alive, peak
            init(self, *args, **kwargs)
            alive += 1
            peak = max(peak, alive)
            refs.add(weakref.ref(self, dropped))

        lengths = []

        def run(task):
            reports = task()
            lengths.append(len(reports))
            return reports

        def measured(builder):
            return lambda cfg: [(name, partial(run, task)) for name, task in builder(cfg)]

        monkeypatch.setattr(VerificationReport, "__init__", counting_init)
        for name, builder in list(_BUILDERS.items()):
            monkeypatch.setitem(_BUILDERS, name, measured(builder))
        argv = [
            "verify", "--p", "5", "--prec", "12", "--oracle-depth", "3", "--seed", "7",
            "--report-both-forms", "--identity", "euler-exact,special-pos,raabe-czp,char-suite",
            "-o", str(tmp_path / "v.txt"),
        ]
        assert main(argv) == 0
        assert sum(lengths) == len((tmp_path / "v.txt").read_text().splitlines()) > 100
        assert peak <= max(lengths) < sum(lengths)

    def test_huge_oracle_depth_refused_fast(self, capsys):
        # 3^10000000 terms: the exponent is checked before p^N is built
        start = time.perf_counter()
        code, _, err = run_cli(
            ["verify", "--p", "3", "--identity", "oracle-czp", "--oracle-depth", "10000000"],
            capsys,
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"]["code"] == "EvaluationCapExceeded"

    @pytest.mark.parametrize("depth, expected", [(12, 0), (13, 2)])
    def test_cap_on_the_oracle_depth(self, capsys, depth, expected):
        # 3^12 <= 10^6 < 3^13: no kernel visits the p^N terms, so only the
        # explicit check on p^N refuses depth 13, and depth 12 runs at once
        start = time.perf_counter()
        code, _, err = run_cli(
            ["verify", "--p", "3", "--identity", "oracle-czp", "--oracle-depth", str(depth)],
            capsys,
        )
        assert time.perf_counter() - start < 5
        assert code == expected
        if expected:
            obj = json.loads(err.strip().splitlines()[-1])
            assert obj["error"]["code"] == "EvaluationCapExceeded"

    def test_oracle_depth_below_two_rejected(self, capsys):
        code, _, err = run_cli(
            ["verify", "--oracle-depth", "0", "--identity", "oracle-czp", "--p", "3"], capsys
        )
        assert code == 2
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"]["code"] == "InvalidArgument"
        assert "--oracle-depth" in obj["error"]["message"]

    def test_library_rejects_oracle_depth_below_two(self):
        with pytest.raises(ValueError, match="--oracle-depth"):
            VerifyConfig(primes=(3,), oracle_depth=1)
        assert VerifyConfig(primes=(3,), oracle_depth=2).oracle_depth == 2

    def test_report_both_forms_adds_variant(self, capsys):
        code, out, _ = run_cli(
            [
                "verify", "--p", "5", "--prec", "12", "--identity", "raabe-czp",
                "--report-both-forms", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        variants = [l for l in lines if l["identity"] == "raabe-czp-variant"]
        assert variants and all(v["status"] == "pass" for v in variants)
        # the variant's residual is recorded: agreement depth well below target
        assert any(v["agreement_depth"] is not None and v["agreement_depth"] <= 2 for v in variants)

    def test_calibrate_writes_fixture(self, capsys, tmp_path):
        out_path = tmp_path / "fixture.json"
        code, out, _ = run_cli(
            [
                "verify", "--p", "5", "--prec", "12", "--oracle-depth", "3",
                "--calibrate", "-o", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["version"] == 1
        assert obj["families"] == {
            "change-of-variable": 2,
            "derivative-char": 0,
            "derivative-czp": 0,
            "ell-oracle": 0,
            "oracle-char": 0,
            "oracle-czp": 0,
            "raabe-char-oracle": 0,
            "raabe-czp-oracle": 0,
            "special-pos": 0,
        }

    @pytest.mark.parametrize(
        "text", ["{}", "[1]", '{"families": [0]}', '{"families": {"oracle-czp": "x"}}']
    )
    def test_malformed_slack_fixture_exits_2(self, capsys, tmp_path, text):
        fixture = tmp_path / "bad.json"
        fixture.write_text(text)
        start = time.perf_counter()
        code, out, err = run_cli(
            ["verify", "--identity", "zeta-one", "--slack-fixture", str(fixture)], capsys
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "ParseError"

    def test_packaged_slack_fixture_loads(self, capsys):
        packaged = resources.files("padiczeta").joinpath("data/calibration.json")
        assert load_slack(packaged) == default_slack()
        assert default_slack()["change-of-variable"] == 2
        code, _, _ = run_cli(
            ["verify", "--p", "5", "--identity", "zeta-one", "--slack-fixture", str(packaged)],
            capsys,
        )
        assert code == 0


class TestTableCommand:
    def test_euler_table_matches_cache_bytes(self, capsys, tmp_path):
        # pinned: the table's bytes must not depend on how the Euler values are computed
        out_path = tmp_path / "euler.json"
        code, _, _ = run_cli(["table", "euler", "--max", "20", "-o", str(out_path)], capsys)
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == "fd0211715d0a2807884053d295f136b673c49606721244c52b11ce3df14442c6"

    def test_zeta_values_csv_deterministic(self, capsys):
        args = [
            "table", "--p", "5", "--prec", "10", "zeta-values",
            "--s-list", "0,1,2", "--x-list", "1/5,2/5",
        ]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "p,prec,s,x,value"
        assert len(out1.strip().splitlines()) == 7

    def test_ell_values_even_rows_vanish(self, capsys):
        code, out, _ = run_cli(
            [
                "table", "--p", "7", "--prec", "10", "ell-values",
                "--chars", "0..5", "--s-list", "0,2", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        for row in rows:
            k = int(row["char"].split(":")[1])
            value = from_json_dict(row["value_json"])
            if k % 2 == 0:
                assert value.is_zero()
            else:
                assert not value.is_zero()

    def test_ell_values_default_characters_fit_p(self, capsys):
        # the default is k = 0..min(3, p - 2): p = 3 has only omega^0 and omega^1
        code, out, _ = run_cli(["table", "ell-values", "--p", "3", "--s-list", "2"], capsys)
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()] == ["char", '"1:0"', '"1:1"']
        argv = ["table", "ell-values", "--p", "5", "--s-list", "2,3", "--format", "json"]
        code, default, _ = run_cli(argv, capsys)
        assert code == 0 and len(json.loads(default)) == 8
        assert run_cli(argv + ["--chars", "0..3"], capsys) == (0, default, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_memory_does_not_grow_with_its_rows(self, tmp_path, fmt):
        # each row is written as it is computed: 4,960 rows peak within a few
        # hundred kB of 4 rows (the memos fill up to their bounds), where
        # holding the rows took 7.6 MB (csv) to 10.0 MB (json)
        def peak(s_list, x_list):
            argv = ["table", "zeta-values", "--p", "5", "--s-list", s_list, "--x-list", x_list]
            tracemalloc.start()
            try:
                assert main(argv + ["--format", fmt, "-o", str(tmp_path / "t")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak("2,3", "1/125,2/125")
        s_list = ",".join(str(s) for s in range(2, 42))
        large = peak(s_list, ",".join(f"{x}/125" for x in range(1, 125)))
        assert large - small < 3_000_000

    def test_json_values_round_trip(self, capsys):
        code, out, _ = run_cli(
            [
                "table", "--p", "5", "--prec", "8", "zeta-values",
                "--s-list", "2", "--x-list", "1/5", "--format", "json",
            ],
            capsys,
        )
        rows = json.loads(out)
        value = from_json_dict(rows[0]["value_json"])
        from padiczeta.zeta_czp import SeriesBudget, zeta_czp

        ctx = PadicContext(5, 8)
        assert value == zeta_czp(ctx, 2, Fraction(1, 5), SeriesBudget(target_prec=8))


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padiczeta.cli", "compute", "--p", "5",
             "euler-number", "--m", "6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-61"


class TestReportRendering:
    def test_json_line_stable(self, ctx5):
        rep = compare_values(
            "demo", {"p": 5, "x": Fraction(1, 5)}, ctx5.one(), ctx5.one()
        )
        obj = json.loads(report_to_json_line(rep))
        assert obj["identity"] == "demo" and obj["status"] == "pass"
        assert obj["params"] == {"p": "5", "x": "1/5"}

    def test_exact_report(self):
        rep = compare_exact("demo-exact", {"m": 3}, Fraction(1, 2), Fraction(1, 2))
        assert rep.status == "pass" and rep.agreement_depth is None

    def test_csv_rendering(self, ctx5):
        reps = [
            compare_values("a", {"p": 5}, ctx5.one(), ctx5.one()),
            compare_exact("b", {}, Fraction(0), Fraction(1)),
        ]
        buf = io.StringIO()
        write = report_writer(buf, "csv")
        assert buf.getvalue().startswith("identity,status")  # the header, before any report
        assert [write(rep) for rep in reps] == [True, False]
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        assert ",fail," in lines[2]

    def test_required_depth_slack_rule(self, ctx5):
        a = ctx5.from_int(1, relprec=10)
        b = ctx5.from_int(1 + 5**8, relprec=10)
        rep = compare_values("slack", {}, a, b)
        assert rep.status == "fail" and rep.agreement_depth == 8
