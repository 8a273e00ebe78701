"""Command-line tests: pipelines, determinism, manifests, exit codes."""

import hashlib
import json
import subprocess
import sys

import numpy
import pytest

from nbminer.cli import main
from nbminer.evaluation import allconf_runs, nb_runs, support_runs, sweep, write_sweep
from nbminer.mining import MinerConfig, nb_dfs, read_itemsets, write_itemsets
from nbminer.nbmodel import fit_database, read_model
from nbminer.synthgen import generate, preset_config, read_truth
from nbminer.transactions import load_basket


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """One small generated dataset shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    basket, truth = root / "d.basket", root / "d.truth"
    rc = main([
        "generate", "--preset", "artif-2", "--transactions", "250",
        "--seed", "5", "--out", str(basket), "--truth", str(truth),
    ])
    assert rc == 0
    return basket, truth


def test_fit_then_mine_matches_in_process(small_dataset, tmp_path, capsys):
    basket, _ = small_dataset
    model = tmp_path / "d.model"
    mined_path = tmp_path / "d.itemsets"

    assert main(["fit", str(basket), "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "fitted:" in out and "gof:" in out

    assert main(["mine", str(basket), "--model", str(model),
                 "--out", str(mined_path)]) == 0

    db = load_basket(basket)
    params, _ = fit_database(db)
    expect = nb_dfs(db, MinerConfig(params, pi=0.95, theta=0.5))

    assert read_model(model) == params
    rows = read_itemsets(mined_path)
    assert [(r[0], r[1]) for r in rows] == [(m.items, m.freq) for m in expect]
    assert [r[3] for r in rows] == pytest.approx([m.predicted_precision for m in expect])


def test_mine_inline_equals_model_file(small_dataset, tmp_path):
    basket, _ = small_dataset
    model = tmp_path / "m.model"
    via_model, inline = tmp_path / "a.itemsets", tmp_path / "b.itemsets"
    assert main(["fit", str(basket), "--out", str(model)]) == 0
    assert main(["mine", str(basket), "--model", str(model), "--out", str(via_model)]) == 0
    assert main(["mine", str(basket), "--fit-inline", "--out", str(inline)]) == 0
    assert via_model.read_bytes() == inline.read_bytes()


def test_reruns_are_byte_identical(small_dataset, tmp_path):
    basket, truth = small_dataset
    b2, t2 = tmp_path / "again.basket", tmp_path / "again.truth"
    assert main(["generate", "--preset", "artif-2", "--transactions", "250",
                 "--seed", "5", "--out", str(b2), "--truth", str(t2)]) == 0
    assert b2.read_bytes() == basket.read_bytes()
    assert t2.read_bytes() == truth.read_bytes()

    m1, m2 = tmp_path / "r1.itemsets", tmp_path / "r2.itemsets"
    for path in (m1, m2):
        assert main(["mine", str(basket), "--fit-inline", "--out", str(path)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_manifest_written_alongside_output(small_dataset, tmp_path):
    basket, _ = small_dataset
    out = tmp_path / "m.itemsets"
    assert main(["mine", str(basket), "--fit-inline", "--theta", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "m.itemsets.manifest.json").read_text())
    assert manifest["command"] == "mine"
    assert manifest["flags"]["theta"] == 1.0
    assert manifest["flags"]["pi"] == 0.95
    assert manifest["inputs"] == [str(basket)]
    assert manifest["input_sha256"] == {
        str(basket): hashlib.sha256(basket.read_bytes()).hexdigest()}
    assert manifest["outputs"] == [str(out)]
    assert manifest["elapsed_seconds"] >= 0
    assert manifest["version"]
    assert manifest["numpy"] == numpy.__version__


def test_generate_manifest_records_seed(small_dataset):
    basket, _ = small_dataset
    manifest = json.loads((basket.parent / "d.basket.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 5
    assert str(basket) in manifest["outputs"]
    # generate reads no file; its bytes depend on the numpy that drew them
    assert manifest["input_sha256"] == {}
    assert manifest["numpy"] == numpy.__version__


def test_fit_total_items_skips_em(small_dataset, tmp_path, capsys):
    basket, _ = small_dataset
    db = load_basket(basket)
    observed = len(db.item_freq)
    model = tmp_path / "known.model"
    assert main(["fit", str(basket), "--total-items", str(observed),
                 "--out", str(model)]) == 0
    assert "em_iterations=0" in capsys.readouterr().out
    assert read_model(model).em_iterations == 0
    assert read_model(model).n_total == observed


def test_fit_underdispersed_is_an_error(tmp_path, capsys):
    basket = tmp_path / "flat.basket"
    basket.write_text("".join(f"{2*i} {2*i+1}\n" for i in range(40)), encoding="ascii")
    rc = main(["fit", str(basket), "--trim", "0", "--out", str(tmp_path / "x.model")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.model").exists()


def test_missing_input_is_an_error(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "nope.basket"), "--out", str(tmp_path / "x.model")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_mine_requires_model_or_inline(small_dataset, tmp_path):
    basket, _ = small_dataset
    with pytest.raises(SystemExit) as exc:
        main(["mine", str(basket), "--out", str(tmp_path / "x.itemsets")])
    assert exc.value.code != 0


def test_mine_rejects_bad_pi(small_dataset, tmp_path, capsys):
    basket, _ = small_dataset
    rc = main(["mine", str(basket), "--fit-inline", "--pi", "1.5",
               "--out", str(tmp_path / "x.itemsets")])
    assert rc == 1
    assert "pi" in capsys.readouterr().err


def test_mine_max_size_writes_the_uncapped_runs_small_itemsets(small_dataset, tmp_path, capsys):
    basket, _ = small_dataset
    full, capped = tmp_path / "full.itemsets", tmp_path / "capped.itemsets"
    assert main(["mine", str(basket), "--fit-inline", "--out", str(full)]) == 0
    assert main(["mine", str(basket), "--fit-inline", "--max-size", "2",
                 "--out", str(capped)]) == 0
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    pairs = [line for line in lines if len(line.split("\t")[0].split()) == 2]
    assert pairs and len(pairs) < len(lines)
    assert capped.read_text(encoding="utf-8") == "".join(pairs)
    capsys.readouterr()
    zero = tmp_path / "zero.itemsets"
    assert main(["mine", str(basket), "--fit-inline", "--max-size", "0",
                 "--out", str(zero)]) == 1
    assert "max_size" in capsys.readouterr().err
    assert not zero.exists()


def test_baseline_miners_write_threshold_column(small_dataset, tmp_path):
    basket, _ = small_dataset
    sup, conf = tmp_path / "s.itemsets", tmp_path / "a.itemsets"
    assert main(["mine-support", str(basket), "--min-support", "0.02",
                 "--out", str(sup)]) == 0
    assert main(["mine-allconf", str(basket), "--min-allconf", "0.4",
                 "--out", str(conf)]) == 0

    sup_rows = read_itemsets(sup)
    assert sup_rows and all(r[2] == 0.02 and r[3] is None for r in sup_rows)
    assert any(len(r[0]) == 1 for r in sup_rows)  # frequent singles are reported

    conf_rows = read_itemsets(conf)
    assert all(r[2] == 0.4 for r in conf_rows)
    assert all(len(r[0]) >= 2 for r in conf_rows)


def test_generate_without_preset_needs_all_fields(tmp_path, capsys):
    rc = main(["generate", "--transactions", "50", "--items", "20",
               "--out", str(tmp_path / "x.basket"), "--truth", str(tmp_path / "x.truth")])
    assert rc == 1
    assert "required" in capsys.readouterr().err

    rc = main(["generate", "--transactions", "50", "--avg-transaction-size", "4",
               "--items", "20", "--patterns", "8", "--avg-pattern-size", "2",
               "--seed", "3",
               "--out", str(tmp_path / "x.basket"), "--truth", str(tmp_path / "x.truth")])
    assert rc == 0
    assert len(load_basket(tmp_path / "x.basket")) == 50


def test_generate_rejects_non_finite_size(tmp_path, capsys):
    out = tmp_path / "nan.basket"
    rc = main(["generate", "--preset", "artif-2", "--transactions", "50",
               "--avg-transaction-size", "nan",
               "--out", str(out), "--truth", str(tmp_path / "nan.truth")])
    assert rc == 1
    assert "avg_transaction_size" in capsys.readouterr().err
    assert not out.exists()


def test_generate_preset_field_override(tmp_path):
    out, truth = tmp_path / "o.basket", tmp_path / "o.truth"
    assert main(["generate", "--preset", "artif-1", "--transactions", "120",
                 "--corruption", "0", "--seed", "9",
                 "--out", str(out), "--truth", str(truth)]) == 0
    db = load_basket(out)
    assert len(db) == 120
    config = preset_config("artif-1", n_transactions=120, corruption=0.0, seed=9)
    expect, _ = generate(config)
    assert db == expect


def test_evaluate_report(small_dataset, tmp_path, capsys):
    basket, truth = small_dataset
    mined = tmp_path / "e.itemsets"
    assert main(["mine", str(basket), "--fit-inline", "--out", str(mined)]) == 0
    capsys.readouterr()

    out_file = tmp_path / "e.report"
    assert main(["evaluate", "--mined", str(mined), "--truth", str(truth),
                 "--out", str(out_file)]) == 0
    text = capsys.readouterr().out
    assert out_file.read_text(encoding="utf-8") == text
    fields = dict(line.split("\t") for line in text.splitlines())
    assert int(fields["tp"]) + int(fields["fp"]) > 0
    assert 0.0 <= float(fields["precision"]) <= 1.0
    assert "by_size" in fields

    assert main(["evaluate", "--mined", str(mined), "--truth", str(truth),
                 "--scoring-mode", "maximal"]) == 0
    maximal = dict(line.split("\t")
                   for line in capsys.readouterr().out.splitlines())
    assert int(maximal["positives_total"]) < int(fields["positives_total"])


def test_evaluate_counts_positives_of_a_big_pattern(tmp_path, capsys):
    truth, mined = tmp_path / "big.truth", tmp_path / "big.itemsets"
    truth.write_text("1\t" + " ".join(map(str, range(40))) + "\n", encoding="utf-8")
    write_itemsets(mined, [((0, 39), 3, 2, 0.9), ((0, 40), 3, 2, 0.9)])
    assert main(["evaluate", "--mined", str(mined), "--truth", str(truth)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "positives_total\t1099511627735" in lines  # 2**40 - 41
    assert "tp\t1" in lines and "fp\t1" in lines


def test_evaluate_rejects_non_finite_truth_weight(tmp_path, capsys):
    truth, mined = tmp_path / "nan.truth", tmp_path / "nan.itemsets"
    write_itemsets(mined, [((1, 2), 3, 2, 0.9)])
    for weight in ("nan", "inf"):
        truth.write_text(f"{weight}\t1 2 3\n", encoding="utf-8")
        assert main(["evaluate", "--mined", str(mined), "--truth", str(truth)]) == 1
        assert f"error: {truth}:1: " in capsys.readouterr().err


def test_evaluate_rejects_truth_weights_whose_sum_overflows(tmp_path, capsys):
    truth, mined = tmp_path / "huge.truth", tmp_path / "huge.itemsets"
    write_itemsets(mined, [((1, 2), 3, 2, 0.9)])
    truth.write_text("1e308\t1 2\n1e308\t3 4\n", encoding="utf-8")
    assert main(["evaluate", "--mined", str(mined), "--truth", str(truth)]) == 1
    assert f"error: {truth}: " in capsys.readouterr().err


def test_benchmark_jobs_give_identical_tables(small_dataset, tmp_path, capsys):
    basket, truth = small_dataset
    args = ["benchmark", "--basket", str(basket), "--truth", str(truth),
            "--theta", "0.5", "--pi-grid", "0.95,0.8",
            "--support-grid", "0.02", "--allconf-grid", "0.4"]
    seq, par = tmp_path / "seq.tsv", tmp_path / "par.tsv"
    assert main(args + ["--out", str(seq)]) == 0
    assert main(args + ["--out", str(par), "--jobs", "2"]) == 0
    assert seq.read_bytes() == par.read_bytes()

    lines = seq.read_text(encoding="ascii").splitlines()
    assert lines[0].startswith("method\tparameter")
    assert len(lines) == 1 + 4
    assert {line.split("\t")[0] for line in lines[1:]} == {
        "nb-theta0.5", "support", "allconf"}


def test_benchmark_grid_point_failure_is_reported_not_fatal(small_dataset, tmp_path, capsys):
    basket, truth = small_dataset
    out = tmp_path / "warn.tsv"
    rc = main(["benchmark", "--basket", str(basket), "--truth", str(truth),
               "--methods", "support", "--support-grid", "0.02,7",
               "--out", str(out)])
    assert rc == 0
    assert "warning:" in capsys.readouterr().err
    lines = out.read_text(encoding="ascii").splitlines()
    assert len(lines) == 1 + 1  # the bad grid point is absent from the table


def test_benchmark_parallel_failure_is_reported_not_fatal(small_dataset, tmp_path, capsys):
    basket, truth = small_dataset
    out = tmp_path / "warn.tsv"
    rc = main(["benchmark", "--basket", str(basket), "--truth", str(truth),
               "--methods", "support", "--support-grid", "0.02,7",
               "--out", str(out), "--jobs", "2"])
    assert rc == 0
    assert "warning: support at 7 failed: ValueError" in capsys.readouterr().err
    assert len(out.read_text(encoding="ascii").splitlines()) == 1 + 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_benchmark_invalid_pi_fails_its_grid_point_only(small_dataset, tmp_path, capsys, jobs):
    basket, truth = small_dataset
    out = tmp_path / "pi.tsv"
    rc = main(["benchmark", "--basket", str(basket), "--truth", str(truth),
               "--methods", "nb", "--theta", "0.5", "--pi-grid", "0,0.95",
               "--out", str(out), "--jobs", jobs])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning: nb-theta0.5 at 0 failed: ValueError: pi must be in (0, 1]" in captured.err
    assert "benchmark: 1/2 grid points" in captured.out
    lines = out.read_text(encoding="ascii").splitlines()
    assert len(lines) == 1 + 1
    assert lines[1].startswith("nb-theta0.5\t0.95\t")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_benchmark_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # refused before the (missing) basket is read, with no table written
    out = tmp_path / "jobs.tsv"
    rc = main(["benchmark", "--basket", str(tmp_path / "absent.basket"),
               "--truth", str(tmp_path / "absent.truth"), "--out", str(out),
               "--jobs", jobs])
    assert rc == 1
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_benchmark_table_is_the_library_sweep(small_dataset, tmp_path):
    basket, truth = small_dataset
    out, expected = tmp_path / "cli.tsv", tmp_path / "lib.tsv"
    assert main(["benchmark", "--basket", str(basket), "--truth", str(truth),
                 "--theta", "0,0.5", "--pi-grid", "0.95,0.8",
                 "--support-grid", "0.02,0.05", "--allconf-grid", "0.4",
                 "--scoring-mode", "maximal", "--out", str(out)]) == 0
    db = load_basket(basket)
    params, _ = fit_database(db, trim_fraction=0.025)
    runs = (nb_runs(params, 0, [0.95, 0.8]) + nb_runs(params, 0.5, [0.95, 0.8])
            + support_runs([0.02, 0.05]) + allconf_runs([0.4]))
    write_sweep(expected, sweep(db, read_truth(truth), runs, scoring_mode="maximal"))
    assert out.read_bytes() == expected.read_bytes()


def test_benchmark_preset_seed_in_manifest(tmp_path):
    out = tmp_path / "p.tsv"
    assert main(["benchmark", "--preset", "artif-2", "--transactions", "200",
                 "--seed", "8", "--methods", "support",
                 "--support-grid", "0.05", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "p.tsv.manifest.json").read_text())
    assert manifest["seed"] == 8
    assert manifest["flags"]["methods"] == "support"


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "nbminer", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "nbminer 0.1.0"


def test_import_leaves_scipy_stats_unloaded():
    # every CLI call pays the import and builds the parser; scipy costs more
    # than the rest of it, so only gof_chi2 imports it, when it is called
    code = ("import sys, nbminer, nbminer.cli; nbminer.cli.build_parser(); "
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
