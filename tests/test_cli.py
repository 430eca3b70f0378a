import csv
import json
import math

import pytest

from cqdec import cli, experiments
from cqdec.cli import main
from cqdec.config import (
    NUMBER_KEYS,
    experiment_config_from_document,
    load_experiment_config,
    parse_kv_text,
)
from cqdec.errors import ConfigError, ResourceBudgetError, ValidationError


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_CONFIG = """\
channel = pure_pair
overlap = 0.70710678118654752
n_grid = [4]
R_grid = [0.25]
delta = 0.3
trials = 200
seed = 7
"""

CHANNEL_EXAMPLE = """\
letter_dim = 2
priors = [0.5, 0.5]
outputs = [[[0.8, [0.1, 0.2]], [[0.1, -0.2], 0.2]], [[0.3, 0.0], [0.0, 0.7]]]
"""


def with_line(line):
    """BASE_CONFIG with ``line`` in place of its line for the same key, or appended."""
    key = line.partition("=")[0].strip()
    kept = [x for x in BASE_CONFIG.splitlines() if x.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


class TestConfigParsing:
    def test_kv_parsing(self):
        doc = parse_kv_text("a = 1\nb = [1, 2]\n# comment\nc = text\n")
        assert doc == {"a": 1, "b": [1, 2], "c": "text"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "trine", "bogus": 1})

    def test_defaults(self):
        cfg = experiment_config_from_document({"channel": "classical_bit"})
        assert cfg.variants == ("rank_one",)

    def test_channel_file_consistency(self):
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "file"})
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "trine", "channel_file": "x"})

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "trine", "n_grid": "nope"})
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "trine", "variants": ["bogus"]})
        with pytest.raises(ConfigError):
            experiment_config_from_document({"channel": "file", "channel_file": 5})


class TestCapacity:
    def test_known_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["capacity", "--config", cfg]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header.startswith("channel,chi,")
        chi = float(row.split(",")[1])
        assert abs(chi - 0.600876) < 1e-5

    def test_classical_bit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "channel = classical_bit\n")
        assert main(["capacity", "--config", cfg]) == 0
        chi = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert abs(chi - 1.0) < 1e-9

    def test_identical_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "channel = pure_pair\noverlap = 1.0\n")
        assert main(["capacity", "--config", cfg]) == 0
        chi = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert abs(chi) < 1e-9

    def test_channel_from_file(self, tmp_path, capsys):
        chan = tmp_path / "chan.cfg"
        chan.write_text(
            "letter_dim = 2\npriors = [0.5, 0.5]\n"
            "outputs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]\n"
        )
        cfg = write_config(tmp_path, f"channel = file\nchannel_file = {chan}\n")
        assert main(["capacity", "--config", cfg]) == 0
        chi = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[1])
        assert abs(chi - 1.0) < 1e-9


BUILTIN_EXAMPLES = {
    "pure_pair": "overlap = 0.6\n",
    "classical_bit": "flip = 0.1\n",
    "depolarized_pair": "overlap = 0.5\nnoise = 0.3\n",
    "trine": "",
}


class TestBuiltinChannels:
    """A builtin named in a config and one named in a channel file take one path."""

    def configs(self, tmp_path, name, params, grid=""):
        chan = tmp_path / "chan.cfg"
        chan.write_text(f"builtin = {name}\n{params}")
        return (write_config(tmp_path, f"channel = {name}\n{params}{grid}", "named.cfg"),
                write_config(tmp_path, f"channel = file\nchannel_file = {chan}\n{grid}",
                             "filed.cfg"))

    @pytest.mark.parametrize("name", BUILTIN_EXAMPLES)
    def test_same_simulate_bytes_on_both_paths(self, tmp_path, name):
        grid = "n_grid = [3, 4]\nR_grid = [0.5]\ndelta = 0.3\ntrials = 50\nseed = 3\n"
        outs = []
        for i, cfg in enumerate(self.configs(tmp_path, name, BUILTIN_EXAMPLES[name], grid)):
            out = tmp_path / f"out{i}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_out_of_range_parameter_exits_1_on_both_paths(self, tmp_path, capsys):
        for cfg in self.configs(tmp_path, "classical_bit", "flip = 2.0\n"):
            assert main(["capacity", "--config", cfg]) == 1
            assert "config error: flip must be in [0, 1], got 2.0" in capsys.readouterr().err


class TestVerify:
    def test_fixture_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [3, 4]\nR_grid = [0.25]\n"
            "delta = 0.3\nseed = 3\n",
        )
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "mixture_identity" in text and "povm_completeness" in text
        assert ",fail" not in text

    def test_empty_window_reports_skip(self, tmp_path):
        # delta = 0 on a nondegenerate spectrum: empty window, skip not crash
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [3]\nR_grid = [0.25]\n"
            "delta = 0.0\ndelta_source = 0.4\nseed = 3\n",
        )
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert "skip" in out.read_text()

    def test_over_budget_point_is_skipped(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [8]\nR_grid = [0.25]\n"
            "delta = 0.3\nseed = 3\ndim_budget = 16\n",
        )
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert "skip:dim" in out.read_text()


    @pytest.mark.parametrize("lines, skips", [
        # the conditional label sets pass set_budget before rho_tilde is built
        ("set_budget = 1", {"rho_tilde": "skip:set"}),
        # dim_H = d^n = 8: the dense 64-entry mixture and POVM pass work_budget
        ("channel = depolarized_pair\noverlap = 0.0\nnoise = 0.5\nwork_budget = 63",
         {"mixture_identity": "skip:work", "povm": "skip:work"}),
        # S(rho) is at most 1 bit for qubit letters
        ("delta = 1.5", {"amplitude_lower": "skip:delta_above_entropy"}),
        # dim_H = 3: the dense 3 x 3 rho_tilde is one number over work_budget
        ("work_budget = 8", {"rho_tilde": "skip:work"}),
    ])
    def test_each_skip_row_is_reached_by_a_config(self, tmp_path, lines, skips):
        replaced = {line.partition("=")[0].strip() for line in lines.splitlines()}
        kept = [x for x in ("channel = pure_pair\noverlap = 0.5\nn_grid = [3]\n"
                            "R_grid = [0.25]\ndelta = 0.3\nseed = 3").splitlines()
                if x.partition("=")[0].strip() not in replaced]
        out = tmp_path / "verify.csv"
        cfg = write_config(tmp_path, "\n".join(kept + [lines]) + "\n")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["check"]: r["status"] for r in rows if r["status"].startswith("skip")} == skips

    def test_mixture_identity_budget_counts_the_block_on_h(self, tmp_path):
        # dim_H = 21 at n = 6: dim_H^2 <= work_budget < (d^n)^2, and the widest
        # class operator, 16 x 16, fits as well
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [6]\nR_grid = [0.25]\n"
            "delta = 0.3\nseed = 3\nwork_budget = 1000\n",
        )
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        assert int(rows["typc_dim"]["lhs"]) ** 2 <= 1000 < (2**6) ** 2
        assert rows["mixture_identity"]["status"] == "pass"

    def test_povm_rows_check_the_codebook_simulate_decodes(self, tmp_path, monkeypatch):
        # verify's POVM codebook is the one of simulate's (n, R_grid[0]) point;
        # n_grid entries that differ from their grid indices tell the seeds apart
        built = {cli: [], experiments: []}
        for module, codebooks in built.items():
            def spy(codebook, *args, _real=module.build_plan, _seen=codebooks, **kwargs):
                _seen.append(codebook)
                return _real(codebook, *args, **kwargs)
            monkeypatch.setattr(module, "build_plan", spy)
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [3, 5]\nR_grid = [0.25, 0.5]\n"
            "delta = 0.3\nseed = 3\ntrials = 0\nexact = never\n",
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
        simulated = [cb for cb in built[experiments] if cb.rate == 0.25]
        assert [cb.n for cb in built[cli]] == [3, 5]
        assert built[cli] == simulated


def test_verify_caps_past_the_float_range_are_inf(tmp_path):
    # at n = 4, delta = 300 the eigenvalue cap 2^(-n(S-delta)), the dimension
    # cap 2^(n(S+delta)) and every trace-power bound are past the float range
    cfg = write_config(tmp_path, "channel = pure_pair\noverlap = 0.5\nn_grid = [4]\n"
                                 "R_grid = [0.3]\ndelta = 300\n")
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    capped = [r for r in rows if r["check"] in ("eigv_rho_bar", "typc_dim", "eigv_rho_tilde",
                                                 "trace_power")]
    assert len(capped) == 9
    assert all(r["rhs"] == "inf" and r["status"] == "pass" for r in capped)


class TestVerifyExitRule:
    # n = 3 captures less than 1 - epsilon_target; n = 8 is over the dim budget
    CONFIG = ("channel = pure_pair\noverlap = 0.5\nn_grid = [3, 8]\nR_grid = [0.25]\n"
              "delta = 0.3\nepsilon_target = 0.01\nseed = 3\ndim_budget = 16\n")

    def run(self, tmp_path):
        out = tmp_path / "verify.csv"
        rc = main(["verify", "--config", write_config(tmp_path, self.CONFIG), "--out", str(out)])
        with open(out, newline="") as fh:
            return rc, list(csv.DictReader(fh))

    def test_one_failed_check_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "subordination_gap", lambda rho_tilde, model: 1.0)
        rc, rows = self.run(tmp_path)
        assert [r["check"] for r in rows if r["status"] == "fail"] == ["subordination"]
        assert rc == 3

    def test_info_and_skip_rows_exit_0(self, tmp_path):
        rc, rows = self.run(tmp_path)
        assert {r["status"] for r in rows} - {"pass"} == {"info:below_target", "skip:dim"}
        assert rc == 0


class TestSimulate:
    def test_rows_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        header, row = out1.read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["status"] == "ok"
        assert cols["N_n"] == "2"
        assert float(cols["err"]) == pytest.approx(
            (int(cols["errors"])) / int(cols["trials"])
        )
        assert float(cols["exact_err"]) == pytest.approx(0.867302, abs=1e-5)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "8", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_classical_bit_error_free(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = classical_bit\nn_grid = [4, 6]\nR_grid = [0.5]\ndelta = 0.5\n"
            "delta_source = 2.0\ndelta_cond = 2.0\ntrials = 300\nseed = 5\n"
            "distinct_codewords = true\n",
        )
        out = tmp_path / "c.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            cols = dict(zip(CSV_HEADER, line.split(",")))
            assert cols["err"] == "0.0"
            assert cols["exact_err"] == "0.0"

    def test_skipped_points_have_reason(self, tmp_path):
        # rate too high for the typical set in distinct mode
        cfg = write_config(
            tmp_path,
            "channel = classical_bit\nn_grid = [4]\nR_grid = [1.5]\ndelta = 0.0\n"
            "trials = 10\nseed = 5\ndistinct_codewords = true\n",
        )
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1]
        cols = dict(zip(CSV_HEADER, row.split(",")))
        assert cols["status"] == "skipped"
        assert cols["reason"] != ""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_codebook_past_the_float_range_is_skipped_for_set(self, tmp_path, command):
        # 2^(nR) at nR = 1100 is past the float range: every variant's row
        # is a set skip, not an OverflowError
        cfg = write_config(tmp_path, "channel = pure_pair\noverlap = 0.5\nn_grid = [1100]\n"
                                     "R_grid = [1.0]\ntrials = 10\n")
        out = tmp_path / "big.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == (3 if command == "compare" else 1)
        assert all((r["status"], r["reason"]) == ("skipped", "set") for r in rows)

    def test_reason_with_a_comma_reads_back_as_one_field(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [3]\nR_grid = [0.25]\n"
            "delta_source = 0.1\ntrials = 10\n",
        )
        out = tmp_path / "comma.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and None not in rows[0]
        assert rows[0]["status"] == "skipped"
        assert rows[0]["reason"] == (
            "invalid: typical set at n=3, delta_source=0.1 is empty; "
            "increase delta_source or n"
        )

    def test_report_format(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "r.txt"
        assert main(["simulate", "--config", cfg, "--format", "report", "--out", str(out)]) == 0
        assert "[record 0]" in out.read_text()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.5\nn_grid = [3, 4]\nR_grid = [0.25, 0.5]\n"
            "delta = 0.3\ntrials = 100\nseed = 11\n",
        )
        out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestCompare:
    def test_three_variants_share_codebooks(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = pure_pair\noverlap = 0.70710678118654752\nn_grid = [4]\n"
            "R_grid = [0.5]\ndelta = 0.3\ntrials = 200\nseed = 9\n",
        )
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        rows = [dict(zip(CSV_HEADER, l.split(","))) for l in lines]
        assert sorted(r["variant"] for r in rows) == ["pgm", "rank_one", "subspace"]
        assert len({r["seed"] for r in rows}) == 1  # shared codebook seed
        assert len({r["N_n"] for r in rows}) == 1

    def test_orthogonal_alphabet_all_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel = classical_bit\nn_grid = [4]\nR_grid = [0.5]\ndelta = 0.5\n"
            "delta_source = 2.0\ndelta_cond = 2.0\ntrials = 200\nseed = 9\n"
            "distinct_codewords = true\n",
        )
        out = tmp_path / "cmp0.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            cols = dict(zip(CSV_HEADER, line.split(",")))
            assert float(cols["err"]) == 0.0


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "channel = pure_pair\noverlap = 0.5\nbogus = 1\n")
        assert main(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize("ordering", ["lexicographic", "worst_case"])
    def test_ordering_is_an_unknown_key(self, tmp_path, capsys, ordering):
        # messages are always tested in order, so message N - 1 is tested last
        cfg = write_config(tmp_path, BASE_CONFIG + f"ordering = {ordering}\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "unknown config keys: ['ordering']" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == 1

    @pytest.mark.parametrize("text, message", [
        ("channel = file\nchannel_file = {tmp}/absent.cfg\n", "cannot read channel file"),
        ("channel = bogus\n", "unknown builtin channel 'bogus'"),
    ])
    def test_unresolvable_channel_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text.format(tmp=tmp_path))
        assert main(["capacity", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, channel_doc, message", [
        pytest.param("overlap = 0.3\nflip = 0.9\n", CHANNEL_EXAMPLE,
                     "builtin parameters ['overlap', 'flip'] are not valid with channel = file",
                     id="builtin-keys-next-to-a-file"),
        pytest.param("", "builtin = trine\nletter_dim = 2\npriors = [1.0]\n"
                     "outputs = [[[1, 0], [0, 0]]]\n",
                     "'builtin' is not valid next to ['letter_dim', 'priors', 'outputs']",
                     id="builtin-next-to-matrices"),
        pytest.param("", CHANNEL_EXAMPLE + "noise = 0.1\n",
                     "builtin parameters ['noise'] are only valid with 'builtin'",
                     id="builtin-key-next-to-matrices"),
    ])
    def test_a_document_stating_two_channels_is_a_config_error(self, tmp_path, capsys, config,
                                                               channel_doc, message):
        # each once ran the one channel and dropped the keys of the other
        chan = tmp_path / "chan.cfg"
        chan.write_text(channel_doc)
        cfg = write_config(tmp_path, f"channel = file\nchannel_file = {chan}\n" + config)
        assert main(["capacity", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (ResourceBudgetError("past the work budget", reason="work"), 2),
        (ValidationError("not a density matrix"), 3),
    ])
    def test_package_error_past_the_points_exits_2_or_3(self, tmp_path, monkeypatch, capsys,
                                                         error, code):
        # every budget and validation error of a point is caught into a skip
        # row, so only a patched output_table reaches main's own handlers
        def output_table(command, cfg, jobs):
            raise error
        monkeypatch.setattr(cli, "output_table", output_table)
        assert main(["simulate", "--config", write_config(tmp_path, BASE_CONFIG)]) == code
        assert str(error) in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("verify", "delta = -0.1"),
        ("simulate", "delta_source = -0.1"),
        ("simulate", "delta_cond = -0.1"),
        ("simulate", "epsilon_target = 0.0"),
        ("simulate", "epsilon_target = 1.0"),
        ("simulate", "dim_budget = 0"),
        ("simulate", "set_budget = 0"),
        ("simulate", "work_budget = -5"),
        ("verify", "m_max = -1"),
        ("simulate", "trials = -1"),
        ("simulate", "n_grid = [4, 0]"),
        ("compare", "R_grid = [-0.25]"),
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, command, line):
        key = line.partition("=")[0].strip()
        cfg = write_config(tmp_path, with_line(line))
        assert main([command, "--config", cfg]) == 1
        assert f"config error: '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_each_number_key_takes_its_smallest_value_and_nothing_below(self, tmp_path, capsys,
                                                                          key):
        field, caster, least = NUMBER_KEYS[key]
        below = least - 1 if caster is int else math.nextafter(least, -math.inf)
        grid = key.endswith("_grid")
        cfg = write_config(tmp_path, with_line(f"{key} = {json.dumps([least] if grid else least)}"))
        assert getattr(load_experiment_config(cfg), field) == ((least,) if grid else least)
        cfg = write_config(tmp_path, with_line(f"{key} = {json.dumps([below] if grid else below)}"))
        assert main(["capacity", "--config", cfg]) == 1
        assert f"config error: '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("simulate", "overlap = abc"),
        ("simulate", "overlap = [1]"),
        ("simulate", "overlap = null"),
        ("simulate", "overlap = true"),
        ("simulate", "trials = true"),
        ("simulate", "trials = 2.5"),
        ("simulate", "trials = Infinity"),
        ("verify", "delta = true"),
        ("verify", "delta = NaN"),
        ("simulate", "n_grid = [true, 4]"),
        ("simulate", "R_grid = [\"0.25\"]"),
        ("simulate", "variants = [1]"),
        ("simulate", "m_max = 1.5"),
        ("simulate", 'seed = "7"'),
        ("simulate", "dim_budget = [8]"),
        ("simulate", 'delta_cond = "0.1"'),
        ("simulate", "epsilon_target = null"),
        ("simulate", "noise = false"),
        ("simulate", "exact = 1"),
        ("simulate", "distinct_codewords = 0"),
    ])
    def test_value_of_the_wrong_type_is_a_config_error(self, tmp_path, capsys, command, line):
        key = line.partition("=")[0].strip()
        assert main([command, "--config", write_config(tmp_path, with_line(line))]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("verify", "R_grid = []"),
        ("simulate", "n_grid = []"),
        ("compare", "variants = []"),
        ("verify", "R_grid = [0.25, 0.25]"),
        ("compare", "n_grid = [4, 4]"),
        ("simulate", 'variants = ["rank_one", "rank_one"]'),
    ])
    def test_empty_or_repeated_grid_is_a_config_error(self, tmp_path, command, line):
        assert main([command, "--config", write_config(tmp_path, with_line(line))]) == 1

    @pytest.mark.parametrize("document", [
        pytest.param('letter_dim = "x"\npriors = [0.5, 0.5]\n'
                     'outputs = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]', id="letter_dim-string"),
        pytest.param("letter_dim = 2\npriors = [0.5, 0.5]\noutputs = 5", id="outputs-number"),
        pytest.param("letter_dim = 2\npriors = [0.5, 0.5]\n"
                     "outputs = [[[1, 0], [0]], [[0, 0], [0, 1]]]", id="outputs-ragged"),
        pytest.param('letter_dim = 2\npriors = [0.5, 0.5]\n'
                     'outputs = [[[1, 0], [0, "x"]], [[0, 0], [0, 1]]]', id="entry-string"),
        pytest.param("letter_dim = 2\npriors = [0.5, 0.5]\n"
                     "outputs = [[[true, 0], [0, false]], [[0, 0], [0, 1]]]", id="entry-bool"),
        pytest.param("letter_dim = 2\npriors = [0.5, 0.5]\n"
                     "outputs = [[[1, [0, 0, 7]], [0, 0]], [[0, 0], [0, 1]]]", id="entry-triple"),
        pytest.param('letter_dim = 2\npriors = "x"\n'
                     'outputs = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]', id="priors-string"),
        pytest.param('builtin = pure_pair\noverlap = "q"', id="builtin-overlap-string"),
        pytest.param("builtin = pure_pair\noverlap = true", id="builtin-overlap-bool"),
    ])
    def test_channel_file_value_of_the_wrong_type_is_a_config_error(self, tmp_path, document):
        chan = tmp_path / "chan.cfg"
        chan.write_text(document + "\n")
        cfg = write_config(tmp_path, f"channel = file\nchannel_file = {chan}\n")
        assert main(["capacity", "--config", cfg]) == 1

    @pytest.mark.parametrize("command", ["capacity", "verify", "simulate", "compare"])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, where):
        # the --seed flag replaces the file's key before validation, so one
        # rule covers both
        if where == "file":
            cfg = write_config(tmp_path, BASE_CONFIG.replace("seed = 7", "seed = -1"))
            argv = [command, "--config", cfg]
        else:
            argv = [command, "--config", write_config(tmp_path, BASE_CONFIG), "--seed", "-1"]
        assert main(argv) == 1
        assert "config error: 'seed' must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("env, value", [
        ("CQDEC_DIM_BUDGET", "abc"),
        ("CQDEC_SET_BUDGET", "1.5"),
        ("CQDEC_WORK_BUDGET", "0"),
        ("CQDEC_DIM_BUDGET", "-3"),
    ])
    def test_bad_budget_variable_is_a_config_error(self, tmp_path, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", cfg]) == 1


CSV_HEADER = (
    "n,R,variant,seed,status,reason,N_n,M,dim_H,trials,errors,err,ci_low,ci_high,"
    "abort_frac,misdecode_frac,exact_err,exact_abort_frac,exact_misdecode_frac,"
    "chi,margin"
).split(",")
