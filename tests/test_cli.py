import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoscalepop
from twoscalepop import cli, metapop, scenarios, spectral, threestage
from twoscalepop.aggregation import ConvergenceTable, iterate_tail
from twoscalepop.errors import ConfigError, DomainExitError, IOFailureError
from twoscalepop.metapop import VARIANT_RESCALED, VARIANT_SLOW

CONFIG_TEXT = """\
# three stages, two patches
[model]
variant = "slow_survival"

[params]
s1_1 = 0.5
s1_2 = 0.5
s2_1 = 0.5
s2_2 = 0.5
s3_1 = 0.5
s3_2 = 0.5
phi_1 = 3.1
phi_2 = 3.1
c_1 = 1.0
c_2 = 1.0
d_1 = 10.0
d_2 = 10.0

[dispersal]
v1_1 = 0.3
v2_1 = 0.875
v3_1 = 0.125

[run]
k_list = [1, 3]
horizon = 300
tail = 5
seed = 42

[init]
x = [0.02, 0.02, 0.05, 0.05, 0.02, 0.02]
"""


def write_config(tmp_path, text=CONFIG_TEXT, name="myrun.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- config parsing ---------------------------------------------------------

def test_parse_config_text_sections_and_values():
    tables = cli.parse_config_text(CONFIG_TEXT, source="inline")
    assert tables["model"]["variant"] == "slow_survival"
    assert tables["params"]["phi_1"] == 3.1
    assert tables["run"]["k_list"] == [1, 3]
    assert tables["init"]["x"][2] == 0.05


def test_parse_config_strips_comments_outside_quotes():
    tables = cli.parse_config_text('[model]\nvariant = "a#b"  # trailing\n')
    assert tables["model"]["variant"] == "a#b"


def test_parse_config_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="line 3"):
        cli.parse_config_text("[run]\ntail = 3\ntail = 4\n")


def test_parse_config_rejects_key_before_any_section():
    with pytest.raises(ConfigError):
        cli.parse_config_text("tail = 3\n")


def test_parse_config_rejects_garbage_line():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config_text("[run]\nwat\n")


def test_parse_config_keeps_commas_inside_quoted_strings():
    tables = cli.parse_config_text('[run]\nlabels = ["a, b", "c"]\n')
    assert tables == {"run": {"labels": ["a, b", "c"]}}


def test_load_config_reads_literal_strings_and_multiline_arrays(tmp_path):
    text = (CONFIG_TEXT.replace('"slow_survival"', "'slow_survival'")
            .replace("k_list = [1, 3]", "k_list = [\n  1,  # first\n  3,\n]"))
    config = cli.load_config(write_config(tmp_path, text))
    assert config.variant == "slow_survival"
    assert config.k_list == (1, 3)


@pytest.mark.parametrize("line, replacement", [
    ("s1_1 = 0.5", "s1_1 = .5"),
    ("phi_1 = 3.1", "phi_1 = 3."),
    ("d_1 = 10.0", "d_1 = Infinity"),
    ("seed = 42", "seed = 42\n[run]"),
])
def test_load_config_rejects_what_toml_rejects(tmp_path, line, replacement):
    text = CONFIG_TEXT.replace(line, replacement)
    with pytest.raises(ConfigError, match=r"myrun\.toml: .*\(at line \d+, column \d+\)"):
        cli.load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["s1_1", "phi_1", "c_1", "d_1", "v1_1"])
def test_non_finite_rates_are_config_errors(tmp_path, capsys, key, value):
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                   for line in CONFIG_TEXT.splitlines())
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError):
        cli.load_config(path)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


def _readme_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Config files", 1)[1].split("```toml\n", 1)[1].split("```", 1)[0]


def test_readme_config_loads_and_shows_the_defaults(tmp_path):
    text = _readme_config()
    tables = cli.parse_config_text(text)
    assert tables["dispersal"]["mixing"] == threestage.DEFAULT_MIXING
    assert tuple(tables["run"]["k_list"]) == scenarios.DEFAULT_K_LIST
    assert tables["run"]["horizon"] == scenarios.DEFAULT_HORIZON
    assert tables["run"]["tail"] == scenarios.DEFAULT_TAIL
    assert tables["run"]["seed"] == scenarios.DEFAULT_SEED
    assert tuple(tables["init"]["x"]) == scenarios.DEFAULT_INITIAL_STATE
    shown = cli.load_config(write_config(tmp_path, text))
    # the optional keys left out, so the loader's defaults apply
    required = "\n".join(line for line in text.split("[run]")[0].splitlines()
                         if not line.startswith("mixing"))
    default = cli.load_config(write_config(tmp_path, required, name="defaults.toml"))
    for field in ("k_list", "horizon", "tail", "seed"):
        assert getattr(shown, field) == getattr(default, field), field
    assert np.array_equal(shown.initial_state, default.initial_state)
    assert np.array_equal(shown.params.migration, default.params.migration)


def test_load_config_round_trip(tmp_path):
    config = cli.load_config(write_config(tmp_path))
    assert config.name == "myrun"
    assert config.variant == "slow_survival"
    assert config.k_list == (1, 3)
    assert config.horizon == 300
    assert config.tail == 5
    assert config.seed == 42
    assert np.allclose(config.initial_state, [0.02, 0.02, 0.05, 0.05, 0.02, 0.02])
    assert np.allclose(config.params.fraction_table()[:, 0], [0.3, 0.875, 0.125])


def test_load_config_defaults(tmp_path):
    text = CONFIG_TEXT.split("[run]")[0]  # drop run and init sections
    config = cli.load_config(write_config(tmp_path, text))
    assert config.k_list == scenarios.DEFAULT_K_LIST
    assert config.horizon == scenarios.DEFAULT_HORIZON
    assert config.tail == scenarios.DEFAULT_TAIL
    assert config.seed == scenarios.DEFAULT_SEED


def test_load_config_missing_file(tmp_path):
    with pytest.raises(IOFailureError):
        cli.load_config(tmp_path / "absent.toml")


@pytest.mark.parametrize("breakage, message", [
    ('variant = "slow_survival"', "variant"),       # dropping it below
    ("s1_1 = 0.5", "s1_1"),
    ("v2_1 = 0.875", "v2_1"),
])
def test_load_config_requires_keys(tmp_path, breakage, message):
    text = CONFIG_TEXT.replace(breakage, "")
    with pytest.raises(ConfigError, match=message):
        cli.load_config(write_config(tmp_path, text))


def test_load_config_rejects_unknown_names(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        cli.load_config(write_config(tmp_path, CONFIG_TEXT + "\n[extra]\nz = 1\n"))
    with pytest.raises(ConfigError, match="unknown"):
        cli.load_config(write_config(tmp_path, CONFIG_TEXT + "\n[model2]\n"))
    # runs always have three stages and two patches: no key sets them
    for key in ("stages = 3", "patches = 2"):
        text = CONFIG_TEXT.replace('variant = "slow_survival"', f'variant = "slow_survival"\n{key}')
        with pytest.raises(ConfigError, match="unknown keys"):
            cli.load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("section, line", [
    ("model", 'variant = "slow_survival"'),
    ("params", "s1_1 = 0.5"),
    ("dispersal", "v1_1 = 0.3"),
    ("run", "tail = 5"),
    ("init", "x = [0.02, 0.02, 0.05, 0.05, 0.02, 0.02]"),
])
def test_load_config_names_the_section_of_an_unknown_key(tmp_path, section, line):
    text = CONFIG_TEXT.replace(line, f"{line}\ntial = 5")
    with pytest.raises(ConfigError) as err:
        cli.load_config(write_config(tmp_path, text))
    assert err.value.field == section
    assert str(err.value) == f"{section}: unknown keys: ['tial']"


def test_a_tail_above_the_box_fails_the_run(tmp_path, capsys):
    # a huge fertility drives every state far above BOX_BOUND while staying
    # finite; once only the last tail row's finiteness was checked, so the
    # run wrote its CSVs and passed
    text = CONFIG_TEXT.replace("phi_1 = 3.1", "phi_1 = 1e13").replace("phi_2 = 3.1", "phi_2 = 1e13")
    config = cli.load_config(write_config(tmp_path, text))
    # the reduced series is read first: its first tail row outside the box
    reduced = threestage.reduced_map(config.params, config.variant)
    y0 = metapop.aggregate(config.initial_state, 2)
    rows, _ = iterate_tail(reduced, y0, config.horizon, config.tail)
    tail_start = config.horizon - config.tail + 1
    outside = [t for t, y in enumerate(rows.tolist(), tail_start)
               if not all(0.0 <= v <= 1e9 for v in y)]
    assert outside and max(rows.max(axis=1)) < 1e15
    with pytest.raises(DomainExitError, match="exceeded the box bound") as err:
        cli.run_scenario(config)
    assert err.value.step == outside[0]
    assert err.value.state.tobytes() == rows[outside[0] - tail_start].tobytes()
    out = tmp_path / "o"
    assert cli.main(["run", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    assert "result: PASS" not in capsys.readouterr().out
    assert not list(out.rglob("*.csv"))


def test_load_config_rejects_out_of_range_values(tmp_path):
    bad = CONFIG_TEXT.replace("s1_1 = 0.5", "s1_1 = 1.5")
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, bad))
    bad = CONFIG_TEXT.replace("k_list = [1, 3]", "k_list = [1, 0]")
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, bad))
    bad = CONFIG_TEXT.replace("x = [0.02, 0.02, 0.05, 0.05, 0.02, 0.02]",
                              "x = [0.02, 0.02]")
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, bad))
    # above the admissible box: every orbit would be skipped as out of it
    bad = CONFIG_TEXT.replace("x = [0.02, 0.02, 0.05, 0.05, 0.02, 0.02]",
                              "x = [2e9, 0.02, 0.05, 0.05, 0.02, 0.02]")
    with pytest.raises(ConfigError) as err:
        cli.load_config(write_config(tmp_path, bad))
    assert (err.value.field, err.value.reason) == ("init.x", "components must lie in [0, 1e+09]")
    assert cli.main(["run", str(write_config(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    # a horizon past int64: the compiled loop once wrapped it and wrote the
    # start state as the tail.  2**63 - 1 is the largest horizon loaded
    bad = CONFIG_TEXT.replace("horizon = 300", "horizon = 9223372036854775808")
    with pytest.raises(ConfigError) as err:
        cli.load_config(write_config(tmp_path, bad))
    assert (err.value.field, err.value.reason) == ("run.horizon",
                                                   "must be at most 9223372036854775807")
    assert cli.main(["run", str(write_config(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    largest = CONFIG_TEXT.replace("horizon = 300", "horizon = 9223372036854775807")
    assert cli.load_config(write_config(tmp_path, largest)).horizon == 2 ** 63 - 1


def test_a_repeated_k_is_a_config_error(tmp_path, capsys):
    # a repeated k was stepped twice, written as two blocks of complete.csv
    # and listed twice in summary.txt's gap table
    for ks in ("[5, 5]", "[1, 3, 1]"):
        bad = CONFIG_TEXT.replace("k_list = [1, 3]", f"k_list = {ks}")
        with pytest.raises(ConfigError) as err:
            cli.load_config(write_config(tmp_path, bad))
        assert (err.value.field, err.value.reason) == ("run.k_list", "each k may appear only once")
        out = tmp_path / "o"
        assert cli.main(["run", str(write_config(tmp_path, bad)), "--fast",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()
        assert "run.k_list" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="each k may appear only once"):
        dataclasses.replace(scenarios.builtin("fig2").configs[0], k_list=(10, 10))


def test_fmt_uses_twelve_significant_digits():
    assert cli._fmt(1 / 3) == "0.333333333333"
    assert cli._fmt(0.05) == "0.05"
    assert cli._fmt(123456789012345.0) == "1.23456789012e+14"


def _csv_text(header, rows) -> str:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def test_write_outputs_formats_each_value_as_fmt_does(tmp_path):
    # -0.0, a subnormal, an extinct-tail magnitude, a large and an exact value
    special = [-0.0, 5e-324, 2.2250738585072014e-309, 1e-72, 3.1e-72, 1e15, 7.0, 1 / 3]
    rng = np.random.default_rng(3)

    def tail(dim):
        values = rng.choice(special, size=(4, dim))
        values[0] = -0.0
        return values

    cfg = dataclasses.replace(scenarios.builtin("fig2").configs[0], k_list=(1, 50))
    summary = cli.RunSummary(
        config=cfg, tail_start=97, reduced_tail=tail(3),
        complete_tails={1: tail(6), 50: tail(6)}, local_tails={0: tail(3), 1: tail(3)},
        orbit_reports={}, orbit_notes={}, scalars={},
        convergence=ConvergenceTable(gaps={}, skipped=()), repeats={}, stepping={})
    paths = cli.write_outputs(summary, tmp_path, "p_")
    assert [p.name for p in paths] == ["p_reduced.csv", "p_complete.csv",
                                       "p_local1.csv", "p_local2.csv"]

    def fmt(values):
        return [cli._fmt(float(v)) for v in values]

    complete = [(str(97 + i), str(k), *fmt(state),
                 *fmt(metapop.aggregate(state, threestage.PATCHES)))
                for k in cfg.k_list for i, state in enumerate(summary.complete_tails[k])]
    expected = {
        "p_reduced.csv": _csv_text(cli.REDUCED_HEADER, [
            (str(97 + i), *fmt(row)) for i, row in enumerate(summary.reduced_tail)]),
        "p_complete.csv": _csv_text(cli.COMPLETE_HEADER, complete),
        **{f"p_local{patch + 1}.csv": _csv_text(cli.REDUCED_HEADER, [
            (str(97 + i), *fmt(row)) for i, row in enumerate(summary.local_tails[patch])])
           for patch in (0, 1)},
    }
    for path in paths:
        assert path.read_bytes().decode() == expected[path.name], path.name
    assert "\r\n97,1,-0,-0,-0,-0,-0,-0," in expected["p_complete.csv"]
    assert "4.94065645841e-324" in expected["p_complete.csv"]


def _count_constants(monkeypatch):
    """Spy on each coefficient build and primitivity test, and on make_system."""
    counts = {"builds": [], "primitivity": 0, "systems": 0}
    build, test, make_system = (threestage.coefficients_from_fractions,
                                spectral.is_primitive_stochastic, threestage.make_system)

    def counted_build(*args, **kwargs):
        fractions, variant = args[4], args[5]
        counts["builds"].append((variant, tuple(np.asarray(fractions, dtype=float).tolist())))
        return build(*args, **kwargs)

    def counted_test(matrix):
        counts["primitivity"] += 1
        return test(matrix)

    def counted_system(*args, **kwargs):
        counts["systems"] += 1
        return make_system(*args, **kwargs)

    monkeypatch.setattr(threestage, "coefficients_from_fractions", counted_build)
    monkeypatch.setattr(spectral, "is_primitive_stochastic", counted_test)
    monkeypatch.setattr(threestage, "make_system", counted_system)
    return counts


@pytest.mark.parametrize("name", ["fig2", "sec42_compare"])
def test_a_run_derives_each_constant_once_per_call(monkeypatch, name):
    scenario = scenarios.builtin(name)
    counts = _count_constants(monkeypatch)
    for cfg in scenario.configs:
        cfg = cfg.with_overrides(fast=True)
        fractions = tuple(cfg.params.fraction_table()[:, 0].tolist())
        # one build per variant (the run's and the other one, for the
        # comparison) and one per isolated patch (its one-hot shares)
        expected = sorted([(VARIANT_SLOW, fractions), (VARIANT_RESCALED, fractions),
                           (VARIANT_SLOW, (1.0, 1.0, 1.0)), (VARIANT_SLOW, (0.0, 0.0, 0.0))])
        for _ in range(2):  # the second call counts the same: nothing is kept
            counts.update(builds=[], primitivity=0, systems=0)
            cli.run_scenario(cfg, include_local=scenario.include_local)
            assert sorted(counts["builds"]) == expected, cfg.variant
            assert counts["systems"] == 1
            # the parameters already make every dispersal block primitive
            assert counts["primitivity"] == 0, cfg.variant


# --- run command ------------------------------------------------------------

def test_run_custom_config_writes_expected_files(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = tmp_path / "results"
    code = cli.main(["run", str(config_path), "--out", str(out)])
    assert code == 0

    run_dir = out / "myrun"
    header, rows = read_csv(run_dir / "reduced.csv")
    assert header == list(cli.REDUCED_HEADER)
    assert len(rows) == 5
    assert [r[0] for r in rows] == [str(t) for t in range(296, 301)]

    header, rows = read_csv(run_dir / "complete.csv")
    assert header == list(cli.COMPLETE_HEADER)
    assert len(rows) == 5 * 2
    assert [r[1] for r in rows] == ["1"] * 5 + ["3"] * 5
    for row in rows:
        states = list(map(float, row[2:8]))
        totals = list(map(float, row[8:]))
        assert abs(sum(states[0:2]) - totals[0]) < 1e-9
        assert abs(sum(states[2:4]) - totals[1]) < 1e-9
        assert abs(sum(states[4:6]) - totals[2]) < 1e-9

    text = (run_dir / "summary.txt").read_text()
    assert "(none declared for user configs)" in text
    assert "result: PASS" in text
    stdout = capsys.readouterr().out
    assert f"wrote {run_dir / 'summary.txt'}" in stdout


def test_run_same_seed_reproduces_outputs(tmp_path):
    config_path = write_config(tmp_path)
    for sub in ("a", "b"):
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / sub)]) == 0
    for name in ("reduced.csv", "complete.csv", "summary.txt"):
        first = (tmp_path / "a" / "myrun" / name).read_bytes()
        second = (tmp_path / "b" / "myrun" / name).read_bytes()
        assert first == second, name


def test_run_tail_override(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["run", str(config_path), "--out", str(out), "--tail", "3"]) == 0
    _, rows = read_csv(out / "myrun" / "reduced.csv")
    assert len(rows) == 3
    assert rows[-1][0] == "300"


@pytest.mark.parametrize("name", ("fig2.toml", "sec42_compare.toml"))
def test_a_user_config_named_like_a_scenario_gets_no_verdicts(tmp_path, capsys, name):
    # the built-in verdicts read runs the file does not make: fig2's need
    # isolated-patch runs, sec42_compare's a rescaled run
    out = tmp_path / "o"
    assert cli.main(["run", str(write_config(tmp_path, name=name)), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "verdicts:\n  (none declared for user configs)\nresult: PASS\n" in printed
    assert "Traceback" not in printed
    assert (out / name[:-len(".toml")] / "summary.txt").read_text() in printed


def test_fast_keeps_the_horizon_above_the_tail_given(tmp_path, capsys):
    config = scenarios.builtin("fig10").configs[0]
    assert (config.horizon, config.tail) == (10_000, 6)
    fast = config.with_overrides(fast=True)
    assert (fast.horizon, fast.tail) == (100, 6)  # no --tail: as before
    fast = config.with_overrides(fast=True, tail=200)
    assert (fast.horizon, fast.tail) == (201, 200)
    out = tmp_path / "o"
    assert cli.main(["run", "fig10", "--fast", "--tail", "200", "--out", str(out)]) != cli.EXIT_CONFIG
    _, rows = read_csv(out / "fig10" / "reduced.csv")
    assert [row[0] for row in rows] == [str(t) for t in range(2, 202)]
    # a horizon below the fast floor of 10 steps is never lengthened
    short = CONFIG_TEXT.replace("horizon = 300\ntail = 5", "horizon = 1\ntail = 2")
    short_path = write_config(tmp_path, short)
    fast = cli.load_config(short_path).with_overrides(fast=True)
    assert (fast.horizon, fast.tail) == (1, 2)
    for flags in ([], ["--fast"]):
        assert cli.main(["run", str(short_path), "--out", str(out), *flags]) == cli.EXIT_OK
        _, rows = read_csv(out / "myrun" / "reduced.csv")
        assert [row[0] for row in rows] == ["0", "1"]
    capsys.readouterr()


def test_run_seed_flag_accepted(tmp_path):
    config_path = write_config(tmp_path)
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "s"),
                     "--seed", "7"]) == 0


def test_run_builtin_fig10_fast(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["run", "fig10", "--fast", "--out", str(out)])
    run_dir = out / "fig10"
    text = (run_dir / "summary.txt").read_text()
    # exit code mirrors the verdict block
    expected = 0 if "result: PASS" in text else 1
    assert code == expected
    assert "FAIL" in text or "PASS" in text

    header, rows = read_csv(run_dir / "complete.csv")
    assert header == list(cli.COMPLETE_HEADER)
    assert len(rows) == 6 * 3  # tail of 6 for k in 1, 5, 10
    _, reduced_rows = read_csv(run_dir / "reduced.csv")
    assert len(reduced_rows) == 6
    capsys.readouterr()


def test_run_fig10_with_a_one_state_tail_fails_its_cycle_verdict(tmp_path, capsys):
    # --tail 1 is valid, but a 2-cycle needs three tail states to show
    out = tmp_path / "o"
    assert cli.main(["run", "fig10", "--fast", "--tail", "1", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    verdict = next(line for line in printed.out.splitlines() if "2-cycle" in line)
    assert verdict.strip().startswith("reduced tail alternates as a 2-cycle: FAIL")
    assert "phase gap inf" in verdict and "too short" in verdict
    assert verdict in (out / "fig10" / "summary.txt").read_text()


def test_run_sec42_compare_fast(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["run", "sec42_compare", "--fast", "--out", str(out)])
    assert code == 0
    run_dir = out / "sec42_compare"
    for prefix in ("slow_survival_", "rescaled_"):
        assert (run_dir / f"{prefix}reduced.csv").exists()
        assert (run_dir / f"{prefix}complete.csv").exists()
    text = (run_dir / "summary.txt").read_text()
    assert "straddle" in text
    assert "result: PASS" in text
    capsys.readouterr()


def _fast_summaries(name):
    scenario = scenarios.builtin(name)
    return {cfg.variant: cli.run_scenario(cfg.with_overrides(fast=True),
                                          include_local=scenario.include_local)
            for cfg in scenario.configs}


def test_run_records_exact_repeats_sec42_fast():
    runs = _fast_summaries("sec42_compare")
    slow, resc = runs["slow_survival"], runs["rescaled"]
    assert set(slow.repeats) == {"reduced", "k=1", "k=10"}
    # slow-survival series settle on exact cycles of periods 4, 1 and 2
    # within the 1000-step horizon
    periods = {name: rep[1] for name, rep in slow.repeats.items()}
    assert periods == {"reduced": 4, "k=1": 1, "k=10": 2}
    assert all(rep[0] <= slow.config.horizon for rep in slow.repeats.values())
    # the rescaled reduced run first repeats only at t = 4579
    assert resc.repeats["reduced"] is None


def test_run_records_no_repeats_fig3_fast():
    summary = _fast_summaries("fig3")["slow_survival"]
    names = {"reduced", "local_1", "local_2"} | {f"k={k}" for k in summary.config.k_list}
    assert summary.repeats == dict.fromkeys(names)


def _report_bits(report):
    if report is None:
        return None
    return (report.kind, [np.asarray(p).tobytes() for p in report.points],
            float(report.residual).hex(), float(report.spectral_radius).hex(),
            report.classification, report.synchronous)


def test_identical_patches_reuse_patch_one(tmp_path):
    cfg = scenarios.builtin("fig2").configs[0].with_overrides(fast=True)
    summary = cli.run_scenario(cfg, include_local=True)
    # patch 2 stepped and searched on its own
    step = threestage.local_map(cfg.params, 1)
    tail, repeat = iterate_tail(step, cfg.initial_state[1::2], cfg.horizon, cfg.tail)
    co = threestage.local_coefficients(cfg.params, 1)
    seed = cli._cycle_seed(co)
    report, note = cli.detect_orbit(step, tail[-1], seed)
    assert summary.repeats["local_2"] == repeat
    assert _report_bits(summary.orbit_reports["local_2"]) == _report_bits(report)
    assert summary.orbit_notes["local_2"] == note
    (tmp_path / "run").mkdir()
    (tmp_path / "direct").mkdir()
    cli.write_outputs(summary, tmp_path / "run")
    direct = dataclasses.replace(summary, local_tails={**summary.local_tails, 1: tail})
    cli.write_outputs(direct, tmp_path / "direct")
    assert ((tmp_path / "run" / "local2.csv").read_bytes()
            == (tmp_path / "direct" / "local2.csv").read_bytes())


def _asymmetric_configs():
    cfg = scenarios.builtin("fig2").configs[0].with_overrides(fast=True)
    params = cfg.params
    phi = params.fertilities
    yield "rates", dataclasses.replace(cfg, params=dataclasses.replace(
        params, fertilities=np.array([phi[0], np.nextafter(phi[1], np.inf)])))
    x0 = cfg.initial_state.copy()
    x0[1] = np.nextafter(x0[1], np.inf)  # stage 1 of patch 2
    yield "start", dataclasses.replace(cfg, initial_state=x0)


def test_identical_patches_step_once_else_both(monkeypatch):
    stepped = []
    local_map = threestage.local_map

    def spy(params, patch):
        stepped.append(patch)
        return local_map(params, patch)

    monkeypatch.setattr(threestage, "local_map", spy)
    cfg = scenarios.builtin("fig2").configs[0].with_overrides(fast=True)
    cli.run_scenario(cfg, include_local=True)
    assert stepped == [0]
    for label, cfg in _asymmetric_configs():
        stepped.clear()
        summary = cli.run_scenario(cfg, include_local=True)
        assert stepped == [0, 1], label
        assert set(summary.local_tails) == {0, 1}, label


@pytest.mark.parametrize("name", ["fig2", "sec42_compare"])
def test_run_full_horizon_verdicts_pass(name, tmp_path, capsys):
    # every series of these scenarios repeats a state exactly, so the 1e6
    # and 1e5 step horizons cost only the steps up to the repeats
    code = cli.main(["run", name, "--out", str(tmp_path)])
    text = (tmp_path / name / "summary.txt").read_text()
    assert code == 0, text
    assert "horizons: full" in text
    verdicts = text.split("verdicts:\n", 1)[1].splitlines()[:-1]
    assert verdicts and all(": PASS (" in line for line in verdicts), text
    assert text.endswith("result: PASS\n")
    capsys.readouterr()


# --- list and check ---------------------------------------------------------

def test_list_names_each_scenario_once(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["fig2", "fig3", "fig10", "sec42_compare", "custom"]


def _spy_on_runs(monkeypatch, shift_call=None, shift=lambda tail: tail + 1e-6):
    """Record each config ``cli.run_scenario`` runs; apply ``shift`` to the
    reduced tail of run number ``shift_call`` (1-based)."""
    configs = []
    run_scenario = cli.run_scenario

    def spy(config, *args, **kwargs):
        summary = run_scenario(config, *args, **kwargs)
        configs.append(config)
        if len(configs) == shift_call:
            summary = dataclasses.replace(summary,
                                          reduced_tail=shift(summary.reduced_tail))
        return summary

    monkeypatch.setattr(cli, "run_scenario", spy)
    return configs


def test_check_battery_passes(capsys, monkeypatch):
    configs = _spy_on_runs(monkeypatch)
    systems = []
    make_system = threestage.make_system

    def counted_system(params, variant):
        systems.append(variant)
        return make_system(params, variant)

    monkeypatch.setattr(threestage, "make_system", counted_system)
    assert cli.main(["check"]) == 0
    # one system per instance (the slow one is reused for the spectral link
    # and the convergence table) and one per probe run
    assert len(systems) == 2 + len(configs)
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    # the lines that do not depend on the BLAS kernel's rounding
    lines = out.splitlines()
    assert lines[-2] == "check same seed reproduces a run: PASS (max repeat gap 0.000e+00)"
    assert lines[-1] == "12/12 checks passed"
    # the probe runs one config, another one, then the first again
    first, middle, last = configs
    same = lambda a, b: (a.variant, a.k_list, a.horizon, a.seed) == (
        b.variant, b.k_list, b.horizon, b.seed)
    assert same(first, last) and not same(first, middle)
    assert np.array_equal(first.initial_state, last.initial_state)


def test_check_fails_when_a_repeat_run_differs(capsys, monkeypatch):
    _spy_on_runs(monkeypatch, shift_call=3)
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("check same seed reproduces a run: FAIL (max repeat gap 1.000e-06")
    assert lines[-1] == "11/12 checks passed"


def test_check_fails_when_a_repeat_run_differs_by_one_ulp(capsys, monkeypatch):
    # the probe's tails go extinct (~1e-72), so only bytes can tell them apart
    _spy_on_runs(monkeypatch, shift_call=3, shift=lambda tail: np.nextafter(tail, np.inf))
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("check same seed reproduces a run: FAIL (max repeat gap ")
    assert lines[-1] == "11/12 checks passed"


# --- failure exits ----------------------------------------------------------

def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.toml")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "[model]\nvariant = \n")
    assert cli.main(["run", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_unknown_scenario_exits_2(capsys):
    assert cli.main(["run", "fig99"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_running_custom_without_a_path_exits_2(capsys):
    assert cli.main(["run", "custom"]) == 2
    err = capsys.readouterr().err
    assert "config" in err


def test_bad_variant_value_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, CONFIG_TEXT.replace("slow_survival", "middling"))
    assert cli.main(["run", str(path)]) == 2
    capsys.readouterr()


def test_negative_seed_exits_2_before_any_output(tmp_path, capsys):
    # a negative seed is refused before any trajectory is computed, from
    # the command line and from a config file alike
    config_path = write_config(tmp_path, CONFIG_TEXT.replace("seed = 42", "seed = -5"))
    for argv in (["run", "fig10", "--fast", "--seed", "-1"], ["run", str(config_path)]):
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: run.seed: ")
        assert not out.exists()


def test_module_entry_point_runs():
    # the child process imports the same twoscalepop as this one, installed
    # or not
    src = str(Path(twoscalepop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "twoscalepop.cli", "list"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "sec42_compare" in proc.stdout


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = str(Path(twoscalepop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, twoscalepop, twoscalepop.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
