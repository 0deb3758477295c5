"""CLI behavior: subcommands, CSV schema, exit codes, determinism, env-var
audit switch."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from fedpex import cli
from fedpex.cli import CSV_COLUMNS, main


def run_cli(args, env_extra=None):
    """Runs the CLI module in a fresh interpreter, for what only a real
    process shows: the entry point's exit status, the environment and the
    real stderr."""
    env = dict(os.environ)
    env.pop("FEDPEX_AUDIT", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "fedpex.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


@pytest.fixture
def refused(capsys):
    """Runs main in-process and asserts a usage refusal: exit 2, exactly one
    `error:` line on stderr and nothing on stdout; an exception escaping main
    fails the test. Returns the error line."""

    def check(args):
        capsys.readouterr()
        code = main(args)
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert captured.out == ""  # no run started
        return lines[0]

    return check


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGen:
    def test_mab_instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["gen", "--type", "mab", "--k", "5", "--gap", "0.3",
                     "--sigma", "0.3", "--seed", "1", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["type"] == "mab" and len(obj["means"]) == 5

    def test_linear_instance_rank(self, tmp_path):
        out = tmp_path / "lin.json"
        code = main(["gen", "--type", "linear", "--d", "5", "--k", "5",
                     "--gap", "0.3", "--sigma", "0.3", "--seed", "1", "--out", str(out)])
        assert code == 0
        import numpy as np

        obj = json.loads(out.read_text())
        assert np.linalg.matrix_rank(np.array(obj["contexts"])) == 5

    def test_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--type", "mab", "--k", "4", "--gap", "0.2",
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self):
        # through the module's entry point: argparse exits 2 itself
        proc = run_cli(["gen", "--type", "mab", "--gap", "0.3", "--out", "/tmp/x.json"])
        assert proc.returncode == 2  # missing --k

    def test_bad_gap_exit_2(self, tmp_path):
        code = main(["gen", "--type", "mab", "--k", "4", "--gap", "1.5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys, message):
        # the generator raises as numpy does for an arm count it cannot
        # allocate, without attempting the allocation
        def unallocatable(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "gen_gap_instance_mab", unallocatable)
        out = tmp_path / "x.json"
        code = main(["gen", "--type", "mab", "--k", "10000000000", "--gap", "0.1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [f"error: {message or 'out of memory'}"]


class TestRun:
    def test_csv_schema_and_aggregate(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "4", "--gap", "0.4", "--seed", "2",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        code = main(["run", "--algo", "famabpe", "--instance", str(inst),
                     "--reps", "3", "--seed-base", "0", "--agents", "4",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 4
        assert rows[1][0] == "famabpe" and rows[1][2] == "0"
        captured = capsys.readouterr().out
        assert "mean tau" in captured

    def test_rows_deterministic_modulo_runtime(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "4", "--gap", "0.4", "--seed", "2",
              "--out", str(inst)])
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["run", "--algo", "famabpe", "--instance", str(inst), "--reps", "2",
                  "--agents", "3", "--out", str(out)])
            rows = read_rows(out)
            outs.append([row[:-1] for row in rows])  # drop wall-clock column
        assert outs[0] == outs[1]

    def test_append_without_duplicate_header(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "3",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        for _ in range(2):
            main(["run", "--algo", "famabpe", "--instance", str(inst), "--reps", "1",
                  "--agents", "2", "--out", str(out)])
        rows = read_rows(out)
        assert len(rows) == 3 and rows[0] == CSV_COLUMNS
        assert rows[1][:3] == rows[2][:3]

    @pytest.mark.parametrize(
        "existing",
        [
            "algo,instance,seed,tau\n1,2,3,4\n",  # an older, shorter schema
            ",".join(reversed(CSV_COLUMNS)) + "\n",  # same names, wrong order
            "not a csv file\n",
            "\n" + ",".join(CSV_COLUMNS) + "\n",  # header not on the first line
            ",".join(CSV_COLUMNS),  # a row would be glued to the header
        ],
        ids=["other-schema", "reordered", "text", "blank-first-line", "no-final-newline"],
    )
    def test_append_to_foreign_csv_exit_2(self, tmp_path, refused, existing):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "3",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        out.write_text(existing)
        refused(["run", "--algo", "famabpe", "--instance", str(inst), "--reps", "1", "--agents", "2",
                 "--out", str(out)])
        assert out.read_text() == existing

    @pytest.mark.parametrize("algo", ["famabpe", "ugapec-sync"])
    def test_agents_beyond_the_activation_draw_exit_2(self, tmp_path, refused, monkeypatch, algo):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "3",
              "--out", str(inst)])
        # 2^32 agents must never be built, also when the check regresses
        monkeypatch.setattr(cli, "_dispatch", lambda *args: pytest.fail("a run was started"))
        out = tmp_path / "res.csv"
        refused(["run", "--algo", algo, "--instance", str(inst), "--agents", "4294967296", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["famabpe", "ugapec-sync"])
    def test_max_rounds_within_the_arm_count_exit_2(self, tmp_path, refused, algo):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "5", "--gap", "0.4", "--seed", "3",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        args = ["run", "--algo", algo, "--instance", str(inst), "--max-rounds", "5", "--out", str(out)]
        # first with no results file, then with a v1 CSV that holds one row
        existing = (",".join(CSV_COLUMNS) + "\r\nfamabpe,x,0,9,2,7,0,True,1,1,True,1.000\r\n").encode()
        for present in (False, True):
            if present:
                out.write_bytes(existing)
            refused(args)
            assert out.read_bytes() == existing if present else not out.exists()

    @pytest.mark.parametrize("kind,algo", [("mab", "ugapec-sync"), ("linear", "lingape-sync")])
    def test_sync_round_cap_inside_the_warm_up_exit_2(self, tmp_path, refused, kind, algo):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", kind, "--k", "5", "--d", "3", "--gap", "0.4", "--seed", "3", "--out", str(inst)])
        out = tmp_path / "res.csv"
        # ten agents on five arms warm up for one global round of ten pulls
        args = ["run", "--algo", algo, "--instance", str(inst), "--agents", "10", "--out", str(out)]
        refused([*args, "--max-rounds", "9"])
        assert not out.exists()
        assert main([*args, "--max-rounds", "10"]) == 0
        assert read_rows(out)[1][3] == "10"

    @pytest.mark.parametrize("command", ["run", "bounds"])
    @pytest.mark.parametrize(
        "flag,value,kind,max_rounds",
        [
            pytest.param(flag, "inf", "mab" if flag == "--gamma" else "linear", "100", id=flag)
            for flag in ("--gamma", "--gamma1", "--gamma2", "--lambda")
        ]
        + [
            # finite values whose confidence widths overflow within the round
            # cap (bounds: the default 10^7): they raised OverflowError, or ran
            # to the cap, where a cap this short ends a run the check misses
            pytest.param("--gamma", "1e200", "mab", "100", id="--gamma=1e200"),
            pytest.param("--delta", "1e-300", "mab", "10000", id="--delta=1e-300"),
            pytest.param("--delta", "1e-308", "linear", "100", id="--delta=1e-308-linear"),
            pytest.param("--gamma2", "1e300", "linear", "10000000", id="--gamma2=1e300"),
            pytest.param("--lambda", "1e-310", "linear", "100", id="--lambda=1e-310"),
        ],
    )
    def test_infinite_trigger_parameters_exit_2(self, tmp_path, refused, flag, value, kind, max_rounds, command):
        # refused by the config before any file is opened; an infinite value
        # must reach neither Fraction() (an OverflowError) nor a run
        algo = "famabpe" if kind == "mab" else "falinpe"
        inst = tmp_path / "inst.json"
        main(["gen", "--type", kind, "--k", "3", "--d", "2", "--gap", "0.4", "--out", str(inst)])
        out = tmp_path / "out"
        args = [command, "--instance", str(inst), flag, value, "--out", str(out)]
        refused(args + (["--algo", algo, "--max-rounds", max_rounds] if command == "run" else []))
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,algo,flag,value",
        [("mab", "ugapec-sync", "--gamma", "1e200"), ("linear", "lingape-sync", "--delta", "1e-308")],
    )
    def test_sync_baselines_refuse_overflowing_widths(self, tmp_path, refused, kind, algo, flag, value):
        # the baselines share the stop checks, so their configs are refused
        # alike, before the CSV header is written
        inst = tmp_path / "inst.json"
        main(["gen", "--type", kind, "--k", "3", "--d", "2", "--gap", "0.4", "--out", str(inst)])
        out = tmp_path / "res.csv"
        args = ["run", "--algo", algo, "--instance", str(inst), "--agents", "2", flag, value, "--out", str(out)]
        refused([*args, "--max-rounds", "100"])
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,algo",
        [("mab", a) for a in ("famabpe", "ugapec-sync", "ugapec-single")]
        + [("linear", a) for a in ("falinpe", "lingape-sync", "lingape-single")],
    )
    def test_overflowing_reward_noise_exit_2(self, tmp_path, capsys, refused, kind, algo):
        # rewards of sigma 1e308 overflow: the runs computed their estimates,
        # and so a stopping arm, from inf and NaN, with RuntimeWarnings
        inst = tmp_path / "inst.json"
        main(["gen", "--type", kind, "--k", "3", "--d", "2", "--gap", "0.4", "--out", str(inst)])
        spec = json.loads(inst.read_text())
        inst.write_text(json.dumps({**spec, "sigma": 1e308}))
        out = tmp_path / "res.csv"
        args = ["run", "--algo", algo, "--instance", str(inst), "--agents", "2", "--max-rounds", "5000"]
        assert "sigma is too large" in refused([*args, "--out", str(out)])
        assert not out.exists()
        if kind == "linear":
            # bounds draws no reward: sigma only sets the default ridge, which
            # is 1 here as at sigma 0.3, so both print the same
            outputs = []
            for sigma in (1e308, 0.3):
                inst.write_text(json.dumps({**spec, "sigma": sigma}))
                for tau in ([], ["--tau", "1000"]):
                    assert main(["bounds", "--instance", str(inst), *tau]) == 0
                    outputs.append(capsys.readouterr().out)
            assert outputs[:2] == outputs[2:]

    @pytest.mark.parametrize("algo", ["falinpe", "lingape-single", "lingape-sync"])
    def test_overflowing_linear_widths_exit_2(self, tmp_path, refused, algo):
        # sigma 1e158 times gamma1's coefficient near 1e150 passes the largest
        # float: the radius was inf, and a zero pair width times it NaN, with
        # RuntimeWarnings at every stop check
        inst = tmp_path / "inst.json"
        inst.write_text('{"type":"linear","dim":1,"contexts":[[0.0],[0.5]],"theta":[0.5],"sigma":1e158}')
        out = tmp_path / "res.csv"
        args = ["run", "--algo", algo, "--instance", str(inst), "--gamma1", "1e300", "--max-rounds", "2000"]
        assert "confidence widths overflow" in refused([*args, "--out", str(out)])
        assert not out.exists()

    def test_overflowing_reward_noise_in_a_sweep_exit_2(self, tmp_path, refused, monkeypatch):
        # refused before any sweep instance is generated
        monkeypatch.setattr(cli, "gen_gap_instance_mab", lambda *args, **kw: pytest.fail("an instance was generated"))
        out = tmp_path / "res.csv"
        refused(["run", "--algo", "famabpe", "--gap-sweep", "0.2:0.4:0.1", "--sigma", "1e307", "--out", str(out)])
        assert not out.exists()

    def test_greedy_sense_flag_is_unknown(self, tmp_path, capsys):
        # falinpe's greedy rule has one form; argparse refuses the old flag
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "falinpe", "--greedy-sense", "min", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --greedy-sense" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source,extra",
        [
            # refused by the config, not by numpy at the first run
            ("instance", ["--seed-base", "-1"]),
            # an infinite bound must not reach the gap count
            ("sweep", ["--gap-sweep", "0.1:inf:0.1"]),
            # 10^13 points, refused by the count before any list is built
            ("sweep", ["--gap-sweep", "0.1:1e12:0.1"]),
            # a span / step that overflows to inf
            ("sweep", ["--gap-sweep", "0.1:1e300:1e-300"]),
            # points at or beyond the ends of (0, 1), which generation rejects
            ("sweep", ["--gap-sweep", "0.5:1.0:0.25"]),
            ("sweep", ["--gap-sweep", "0:0.5:0.1"]),
            ("sweep", ["--gap-sweep=-0.2:0.4:0.2"]),
            # refused by the commands themselves
            ("instance", ["--reps", "0"]),
            ("none", []),
            ("gen", ["--type", "linear", "--k", "5", "--gap", "0.3"]),
        ],
        ids=["negative-seed", "infinite-sweep", "huge-sweep", "overflowing-sweep", "sweep-reaches-1",
             "sweep-from-0", "negative-sweep", "zero-reps", "no-source",
             "gen-linear-without-d"],
    )
    def test_usage_refusal_exit_2(self, tmp_path, refused, source, extra):
        out = tmp_path / "res.csv"
        args = ["run", "--algo", "famabpe", "--out", str(out), *extra]
        if source == "gen":
            args = ["gen", "--out", str(out), *extra]
        if source == "instance":
            inst = tmp_path / "inst.json"
            main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--out", str(inst)])
            args += ["--instance", str(inst)]
        refused(args)
        assert not out.exists()

    def test_huge_sweep_is_refused_by_its_count(self):
        # 0.1:1e12:0.1 has 10^13 points; refusing it allocates no list of them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than 10000 points"):
                cli._parse_sweep("0.1:1e12:0.1")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert len(cli._parse_sweep("0.0001:0.9999:0.0001")) == cli._MAX_SWEEP_POINTS - 1
        assert cli._parse_sweep("0.3:0.5:0.1") == [0.3, 0.4, 0.5]

    def test_incompatible_algo_instance_exit_2(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "3",
              "--out", str(inst)])
        code = main(["run", "--algo", "falinpe", "--instance", str(inst),
                     "--out", str(tmp_path / "res.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--reps", "0"], ["--seed-base", "-1"], ["--gamma2", "inf"], ["--max-rounds", "3"]],
        ids=["zero-reps", "negative-seed", "infinite-gamma2", "round-cap-within-the-arms"],
    )
    def test_sweep_usage_error_generates_nothing(self, tmp_path, monkeypatch, refused, extra):
        # a usage error is refused before any of the 9,000 sweep instances is generated
        calls = []
        for name in ("gen_gap_instance_mab", "gen_gap_instance_linear"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args))
        out = tmp_path / "res.csv"
        refused(["run", "--algo", "falinpe", "--gap-sweep", "0.0001:0.9:0.0001", "--out", str(out), *extra])
        assert calls == [] and not out.exists()

    def test_foreign_out_generates_nothing(self, tmp_path, monkeypatch, refused):
        # an --out that is not a v1 results CSV is refused before any of the
        # 9,000 sweep instances is generated
        calls = []
        for name in ("gen_gap_instance_mab", "gen_gap_instance_linear"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args))
        out = tmp_path / "res.csv"
        existing = b"algo,instance,seed,tau\n1,2,3,4\n"
        out.write_bytes(existing)
        refused(["run", "--algo", "falinpe", "--gap-sweep", "0.0001:0.9:0.0001", "--out", str(out)])
        assert calls == [] and out.read_bytes() == existing

    def test_gap_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["run", "--algo", "famabpe", "--gap-sweep", "0.3:0.5:0.1",
                     "--k", "3", "--reps", "2", "--agents", "3",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1 + 3 * 2
        labels = {row[1] for row in rows[1:]}
        assert len(labels) == 3

    def test_sync_baseline_cost_ratio(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "5", "--gap", "0.4", "--seed", "4",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        code = main(["run", "--algo", "ugapec-sync", "--instance", str(inst),
                     "--reps", "2", "--agents", "10", "--episode-len", "100",
                     "--out", str(out)])
        assert code == 0
        for row in read_rows(out)[1:]:
            tau, comm = int(row[3]), int(row[4])
            assert comm * 50 == tau

    def test_audit_env_var(self, tmp_path):
        # in a fresh interpreter, so that the variable is read from a real environment
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "5",
              "--out", str(inst)])
        out = tmp_path / "res.csv"
        proc = run_cli(["run", "--algo", "famabpe", "--instance", str(inst),
                        "--reps", "1", "--agents", "2", "--out", str(out)],
                       env_extra={"FEDPEX_AUDIT": "1"})
        assert proc.returncode == 0

    def test_failed_audit_exit_1(self, tmp_path, capsys, monkeypatch):
        # a merge that drops one pull of every upload after set-up's
        from fedpex.runner import MabFamily

        merge = MabFamily.merge

        def dropping(self, server, arm, n, reward_sum):
            return merge(self, server, arm, n - (server.counts_total >= self.instance.k_arms), reward_sum)

        monkeypatch.setattr(MabFamily, "merge", dropping)
        monkeypatch.setenv("FEDPEX_AUDIT", "1")
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "mab", "--k", "3", "--gap", "0.4", "--seed", "5", "--out", str(inst)])
        capsys.readouterr()
        code = main(["run", "--algo", "famabpe", "--instance", str(inst), "--agents", "2",
                     "--out", str(tmp_path / "res.csv")])
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code == 1 and captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error: count conservation"), captured.err

    def test_single_and_linear_algos(self, tmp_path):
        lin = tmp_path / "lin.json"
        main(["gen", "--type", "linear", "--d", "2", "--k", "3", "--gap", "0.4",
              "--seed", "6", "--out", str(lin)])
        out = tmp_path / "res.csv"
        for algo in ("falinpe", "lingape-single", "lingape-sync"):
            code = main(["run", "--algo", algo, "--instance", str(lin), "--reps", "1",
                         "--agents", "3", "--epsilon", "0.1", "--episode-len", "10",
                         "--out", str(out)])
            assert code == 0


NESTED = '{"type":"mab","sigma":0.3,"means":' + "[" * 100_000


class TestInstanceBoundary:
    """Malformed or non-finite instance files exit 2 with a one-line error."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"type":"mab","sigma":0.3}',
            '{"type":"linear","dim":3,"contexts":[1,0,0],"theta":[1,0,0],"sigma":0.3}',
            '{"type":"mab","means":[1.0,0.5],"sigma":Infinity}',
            '{"type":"mab","means":[1.0,NaN],"sigma":0.3}',
            '{"type":"linear","dim":2,"contexts":[[1,0],[0,1]],"theta":[Infinity,0],"sigma":0.3}',
            # estimates of these overflow, so B is NaN and never reaches epsilon
            '{"type":"mab","means":[1e308,0.9e308,0.0],"sigma":1}',
            '{"type":"mab","means":[1e308,-1e308],"sigma":1}',
            # deeper than the JSON parser recurses: a RecursionError, not a ValueError
            NESTED,
        ],
        ids=["missing-means", "1d-contexts", "inf-sigma", "nan-mean", "inf-theta", "overflowing-means",
             "overflowing-gap", "deeply-nested"],
    )
    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_exit_2_without_traceback(self, tmp_path, refused, text, command):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        out = tmp_path / "res.csv"
        args = ["bounds", "--instance", str(inst), "--out", str(out)]
        if command == "run":
            algo = "famabpe" if '"mab"' in text else "falinpe"
            # a round cap keeps a regression that accepts the file from spinning
            args = ["run", "--algo", algo, "--instance", str(inst), "--max-rounds", "20000", "--out", str(out)]
        refused(args)
        assert not out.exists()

    def test_real_stderr_shows_no_traceback(self, tmp_path):
        # through the module's entry point, which prints what escapes main
        inst = tmp_path / "inst.json"
        inst.write_text(NESTED)
        out = tmp_path / "res.csv"
        proc = run_cli(["run", "--algo", "famabpe", "--instance", str(inst), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == "" and not out.exists()


class TestNumericalFailureExit1:
    """A run or a bound that fails numerically on an accepted instance is a
    runtime failure: exit 1 and one `error:` line. The LP's failure escaped
    main as a traceback, and the lost pivot exited 2, the usage code, after
    the CSV header was written."""

    # a context of norm 1e-9 leaves the LP's absolute pivot tolerance no pivot
    LP = '{"type":"linear","dim":2,"contexts":[[0,0],[1e-9,1e-9]],"theta":[0,0.5],"sigma":0.3}'
    # sigma 1e-140 sets a default ridge near 3e-279, and no context reaches the second axis
    PIVOT = '{"type":"linear","dim":2,"contexts":[[0.5,0],[0,0]],"theta":[0.5,0],"sigma":1e-140}'

    @pytest.mark.parametrize(
        "text,command,message",
        [(LP, "bounds", "LP unbounded"), (LP, "run", "LP unbounded"), (PIVOT, "run", "pivot")],
        ids=["lp-bounds", "lp-run", "pivot-run"],
    )
    def test_exit_1(self, tmp_path, capsys, text, command, message):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        args = ["bounds", "--instance", str(inst)]
        if command == "run":
            args = ["run", "--algo", "falinpe", "--instance", str(inst), "--max-rounds", "2000",
                    "--out", str(tmp_path / "res.csv")]
        capsys.readouterr()
        code = main(args)
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code == 1 and captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], captured.err


class TestBounds:
    def test_mab_reference_values(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        import fedpex

        fedpex.save_instance(fedpex.MabInstance(means=(1.0, 0.5), sigma=1.0), inst)
        code = main(["bounds", "--instance", str(inst), "--epsilon", "0.1",
                     "--agents", "10", "--gamma", "0.01", "--tau", "10000"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["complexity"] == pytest.approx(125.0)
        assert rep["comm_bound"] == pytest.approx(2923.2967235008789, abs=1e-6)

    def test_epsilon_zero_marker(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        import fedpex

        fedpex.save_instance(fedpex.MabInstance(means=(1.0, 0.5), sigma=0.3), inst)
        code = main(["bounds", "--instance", str(inst), "--epsilon", "0"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["complexity"] == "+inf"

    @pytest.mark.parametrize(
        "sigma,eps,want",
        [
            # d^2 underflows to 0 at eps 1e-200 (ZeroDivisionError, exit 1)
            pytest.param(0.3, "1e-200", "+inf", id="d-squared-underflows"),
            # sigma^2 overflows (OverflowError, exit 1)
            pytest.param(1e200, "0.1", "+inf", id="sigma-squared-overflows"),
            pytest.param(0.0, "1e-200", 0.0, id="sigma-0"),
        ],
    )
    def test_mab_squares_beyond_the_float_range(self, tmp_path, capsys, sigma, eps, want):
        import fedpex

        inst = tmp_path / "inst.json"
        fedpex.save_instance(fedpex.MabInstance(means=(0.5, 0.4, 0.1), sigma=sigma), inst)
        assert main(["bounds", "--instance", str(inst), "--epsilon", eps]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["complexity"] == want and rep["epsilon_zero_flag"] is False

    def test_mab_reward_noise_that_only_a_draw_overflows(self, tmp_path, capsys):
        # bounds draws no reward; it refused this for a run's reward sums
        inst = tmp_path / "inst.json"
        inst.write_text('{"type":"mab","means":[0.5,0.4,0.1],"sigma":1e308}')
        assert main(["bounds", "--instance", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["complexity"] == "+inf"

    def test_linear_reward_noise_that_only_a_draw_overflows(self, tmp_path, capsys):
        # bounds draws no reward; it refused this for a run's reward sums
        inst = tmp_path / "inst.json"
        inst.write_text('{"type":"linear","dim":2,"contexts":[[1,0],[0,1],[0.5,0.5]],"theta":[0.6,0],"sigma":1e308}')
        assert main(["bounds", "--instance", str(inst), "--tau", "1000"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["complexity"] == 100.00000000000001 and rep["comm_bound"] == pytest.approx(211.27031433083087)

    @pytest.mark.parametrize("eps", ["0", "1e-200"])
    def test_linear_squared_denominator_underflows(self, tmp_path, capsys, eps):
        # (gap / 3)^2 underflows to 0: the weighted arms' terms are past the
        # largest float, and the arms the design does not weight gave 0/0,
        # a NaN refused as JSON after divide and invalid RuntimeWarnings
        inst = tmp_path / "inst.json"
        inst.write_text('{"type":"linear","dim":2,"contexts":[[1,0],[0,1],[0.5,0.5]],"theta":[1e-170,0],"sigma":0.3}')
        assert main(["bounds", "--instance", str(inst), "--epsilon", eps]) == 0
        assert json.loads(capsys.readouterr().out)["complexity"] == "+inf"

    def test_sigma_scaling_in_output(self, tmp_path, capsys):
        import fedpex

        values = []
        for sigma in (0.3, 0.6):
            inst = tmp_path / f"i{sigma}.json"
            fedpex.save_instance(fedpex.MabInstance(means=(1.0, 0.5), sigma=sigma), inst)
            main(["bounds", "--instance", str(inst), "--epsilon", "0.1"])
            values.append(json.loads(capsys.readouterr().out)["complexity"])
        assert values[1] == pytest.approx(4 * values[0])

    @pytest.mark.parametrize(
        "tau,kind",
        [
            pytest.param("0", "mab", id="0"),
            pytest.param("-3", "mab", id="-3"),
            # 10^400 does not fit in a float: the linear bound raised OverflowError
            pytest.param("1" + "0" * 400, "mab", id="1e400-mab"),
            pytest.param("1" + "0" * 400, "linear", id="1e400-linear"),
            # the first integer past the largest float
            pytest.param(str(int(sys.float_info.max) + 1), "mab", id="max-float+1-mab"),
            pytest.param(str(int(sys.float_info.max) + 1), "linear", id="max-float+1-linear"),
        ],
    )
    def test_tau_below_one_exit_2(self, tmp_path, refused, tau, kind):
        inst = tmp_path / "inst.json"
        main(["gen", "--type", kind, "--k", "3", "--d", "2", "--gap", "0.4", "--out", str(inst)])
        out = tmp_path / "bounds.json"
        assert "--tau" in refused(["bounds", "--instance", str(inst), "--tau", tau, "--out", str(out)])
        assert not out.exists()

    def test_overflowing_linear_bound_exit_2(self, tmp_path, refused):
        # tau / (ridge d) overflows a float at tau = 10^307, ridge 0.001, d = 2;
        # the report held "comm_bound": Infinity, which is not JSON
        inst = tmp_path / "inst.json"
        main(["gen", "--type", "linear", "--k", "3", "--d", "2", "--gap", "0.4", "--out", str(inst)])
        out = tmp_path / "bounds.json"
        args = ["bounds", "--instance", str(inst), "--lambda", "0.001", "--tau", "1" + "0" * 307]
        assert "--tau" in refused(args)
        assert "--tau" in refused(args + ["--out", str(out)])
        assert not out.exists()

    def test_json_file_output(self, tmp_path):
        import fedpex

        inst = tmp_path / "inst.json"
        fedpex.save_instance(fedpex.MabInstance(means=(1.0, 0.5), sigma=0.3), inst)
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--instance", str(inst), "--epsilon", "0.2",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["type"] == "mab"
