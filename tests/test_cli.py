import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import residuevc
from residuevc import svgplot
from residuevc.cli import RunManifest, main
from residuevc.field import log2_floor
from residuevc.primes import primes_in_range


def read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_vcdim_empty_range(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "14:16", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "vcdim.csv")
    assert rows == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "vcdim"
    for artifact in manifest["outputs"]:
        assert Path(artifact).exists()


def test_vcdim_small_range(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:31", "--convention", "zero-in",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "vcdim.csv")
    assert [int(r["q"]) for r in rows] == primes_in_range(5, 31)
    for r in rows:
        q, vcdim = int(r["q"]), int(r["vcdim"])
        assert vcdim in (log2_floor(q) - 1, log2_floor(q))
        assert r["convention"] == "zero-in"
        assert r["exact"] == "true"
        witness = [int(v) for v in r["witness"].split(";")]
        assert len(witness) == vcdim
    svg = (out / "vcdim.svg").read_text()
    assert svg.startswith("<?xml") and "<circle" in svg and "<polyline" in svg


def test_vcdim_one_prime_plot(tmp_path):
    # one prime spans no x range: the plot widens it to [5, 6], so the
    # point sits at the left edge of the frame
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:5", "--out-dir", str(out)]) == 0
    assert [int(r["q"]) for r in read_csv(out / "vcdim.csv")] == [5]
    svg = (out / "vcdim.svg").read_text()
    assert '<circle cx="56.00"' in svg
    assert "nan" not in svg and "inf" not in svg
    # points all at one height widen the y range the same way
    flat = tmp_path / "flat.svg"
    svgplot.scatter_svg(flat, [(5, 2), (7, 2)])
    assert "nan" not in flat.read_text()


def test_vcdim_resume_completes_missing(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:13", "--out-dir", str(out)]) == 0
    first = read_csv(out / "vcdim.csv")
    assert main(["vcdim", "--range", "5:31", "--resume",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "vcdim.csv")
    assert sorted(int(r["q"]) for r in rows) == primes_in_range(5, 31)
    assert len(rows) == len(set(r["q"] for r in rows))
    assert rows[: len(first)] == first  # old rows untouched


def test_vcdim_early_exit_lower_bounds(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:120", "--early-exit",
                 "--out-dir", str(out)]) == 0
    for r in read_csv(out / "vcdim.csv"):
        assert int(r["vcdim"]) >= log2_floor(int(r["q"])) - 1


def test_ap_rows(tmp_path):
    out = tmp_path / "a"
    assert main(["ap", "--range", "5:11", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "ap.csv")
    assert [int(r["q"]) for r in rows] == [5, 7, 11]
    for r in rows:
        assert 1 <= int(r["longest"]) <= log2_floor(int(r["q"]))
    assert (out / "ap.svg").exists()


def test_sweeps_share_primes_from_five(tmp_path):
    items = {}
    for command in ("vcdim", "ap"):
        out = tmp_path / command
        assert main([command, "--range", "2:13", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        items[command] = [(i["q"], i["status"]) for i in manifest["items"]]
    assert items["vcdim"] == items["ap"] == [(q, "ok") for q in [5, 7, 11, 13]]


def test_prob_deterministic_and_empty(tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    args = ["prob", "--n", "5:5", "--trials", "30", "--density", "6",
            "--seed", "42"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    a = (out1 / "prob_n5.csv").read_bytes()
    b = (out2 / "prob_n5.csv").read_bytes()
    assert a == b  # byte-identical reruns
    out3 = tmp_path / "p3"
    assert main(["prob", "--n", "5:5", "--density", "0",
                 "--out-dir", str(out3)]) == 0
    assert read_csv(out3 / "prob_n5.csv") == []


def test_prob_csv_schema(tmp_path):
    out = tmp_path / "p"
    assert main(["prob", "--n", "5:5", "--trials", "20", "--density", "5",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "prob_n5.csv")
    for r in rows:
        assert r["n"] == "5"
        assert 0.7 <= float(r["ratio"]) <= 0.85
        assert 0.0 <= float(r["p_hat"]) <= 1.0
        assert int(r["hits"]) <= int(r["trials"])


def test_verify_exit_zero(tmp_path):
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "31", "--r", "2,3", "--n-max", "2",
                 "--samples", "100", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "verify.csv")
    assert all(r["status"] == "ok" for r in rows)
    assert {r["check"] for r in rows} == {"weil", "equidistribution",
                                          "shattering"}


def test_verify_reaches_the_quad_check(tmp_path):
    # from q = 1024 on, n* = 4 at the default epsilon: the shattering rows
    # of 1031 and 1033 come from the quad check, which finds no failure
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "1033", "--r", "2", "--n-max", "1",
                 "--samples", "1", "--out-dir", str(out)]) == 0
    rows = {r["q"]: r for r in read_csv(out / "verify.csv")
            if r["check"] == "shattering"}
    for q in ("1031", "1033"):
        assert "n_star=4" in rows[q]["params"].split(";"), q
        assert rows[q]["violations"] == "0" and rows[q]["status"] == "ok", q


def test_verify_trivial_range(tmp_path, capsys):
    # no prime from 5 to 3, so the run would check nothing
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "3", "--out-dir", str(out)]) == 2
    assert "nothing would be checked" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--q-max", "4"], ["--q-max", "-1"],
                                 # 5 divides neither 5 - 1 nor 7 - 1
                                 ["--q-max", "10", "--r", "5"]])
def test_verify_checking_nothing_leaves_previous_run(tmp_path, bad, capsys):
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "40", "--samples", "50",
                 "--out-dir", str(out)]) == 0
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["verify", *bad, "--out-dir", str(out)]) == 2
    assert "nothing would be checked" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_verify_skips_non_dividing_r(tmp_path):
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "11", "--r", "5", "--n-max", "2",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    skipped = [i for i in manifest["items"] if i["status"] == "skipped"]
    # 5 divides q-1 only for q = 11 in this range
    assert {i["q"] for i in skipped} == {5, 7}
    rows = read_csv(out / "verify.csv")
    assert {int(r["q"]) for r in rows} == {11}


@pytest.mark.parametrize("r", ["0", "1", "2,1", "-2", "2,x", "2,2", "3,2,3"])
def test_verify_rejects_bad_index_list(tmp_path, r, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q-max", "31", "--r", r,
              "--out-dir", str(tmp_path / "w")])
    assert exc.value.code == 2
    assert "--r" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_manifest_references_every_artifact(tmp_path):
    out = tmp_path / "m"
    assert main(["prob", "--n", "5:6", "--trials", "10", "--density", "3",
                 "--seed", "2", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {Path(p).name for p in manifest["outputs"]}
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == produced
    assert manifest["tool_version"]
    assert manifest["started_at"] and manifest["finished_at"]


def test_bad_range_rejected():
    with pytest.raises(SystemExit):
        main(["vcdim", "--range", "oops"])


@pytest.mark.parametrize("bad", ["5:x", "9:5"])
def test_malformed_or_reversed_range_rejected(tmp_path, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vcdim", "--range", bad, "--out-dir", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert "--range" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_vcdim_prime_that_raises_is_an_error_item(tmp_path, monkeypatch):
    from residuevc import cli
    solve = cli.vc_dimension

    def failing(q, *args, **kwargs):
        if q == 11:
            raise RuntimeError("search failed")
        return solve(q, *args, **kwargs)

    monkeypatch.setattr(cli, "vc_dimension", failing)
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:13", "--out-dir", str(out)]) == 0
    items = json.loads((out / "manifest.json").read_text())["items"]
    assert [(i["q"], i["status"]) for i in items] == [
        (5, "ok"), (7, "ok"), (11, "error"), (13, "ok")]
    assert items[2]["detail"] == "search failed"
    assert [int(r["q"]) for r in read_csv(out / "vcdim.csv")] == [5, 7, 13]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_rejected(tmp_path, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vcdim", "--range", "5:7", "--jobs", jobs,
              "--out-dir", str(tmp_path / "v")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_jobs_caps_pool_at_primes_left(tmp_path, monkeypatch):
    from residuevc import search
    sizes = []

    class NoPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            raise RuntimeError("no process is started in this test")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 64)
    with pytest.raises(RuntimeError):
        main(["vcdim", "--range", "5:7", "--jobs", "5000",
              "--out-dir", str(tmp_path / "v")])
    assert sizes == [2]


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RESIDUEVC_OUT", str(tmp_path / "envout"))
    assert main(["ap", "--range", "5:7"]) == 0
    assert (tmp_path / "envout" / "ap" / "ap.csv").exists()


@pytest.mark.parametrize("command, fragment", [
    ("vcdim", "41,5,tr"), ("ap", "41,4,5.35"),
    # every field parses, but the line ending was never written
    ("ap", "41,3,5.357552,0.559957,zero-in")])
def test_resume_redoes_truncated_last_row(tmp_path, command, fragment):
    out = tmp_path / command
    csv_path = out / f"{command}.csv"
    assert main([command, "--range", "5:37", "--out-dir", str(out)]) == 0
    with csv_path.open("a", encoding="utf-8") as fh:
        fh.write(fragment)  # a write cut off mid-row, no newline
    assert main([command, "--range", "5:43", "--resume",
                 "--out-dir", str(out)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert fragment not in lines
    rows = read_csv(csv_path)
    assert [int(r["q"]) for r in rows] == primes_in_range(5, 43)
    assert all(None not in r and None not in r.values() for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    redone = {i["q"] for i in manifest["items"] if i["status"] == "ok"}
    assert redone == {41, 43}


def test_resume_skips_malformed_rows(tmp_path):
    out = tmp_path / "v"
    csv_path = out / "vcdim.csv"
    assert main(["vcdim", "--range", "5:13", "--out-dir", str(out)]) == 0
    with csv_path.open("a", encoding="utf-8") as fh:
        fh.write("17,3,maybe,0.7,0;1;3,zero-in,1.0\n")
        # every field parses, but one more than the header follows them
        fh.write("19,3,true,0.7,0;1;3,zero-in,1.0,2.0\n")
    assert main(["vcdim", "--range", "5:19", "--resume",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [i["q"] for i in manifest["items"]
            if i["status"] == "ok"] == [17, 19]


def test_resumed_sweep_plots_what_a_fresh_one_does(tmp_path):
    # the plot is drawn from the checkpointed rows and the new results,
    # never from the malformed rows a resume skips
    def svg(command, hi, before=None, append=""):
        out = tmp_path / f"{command}_{before}"
        if before:
            assert main([command, "--range", f"5:{before}",
                         "--out-dir", str(out)]) == 0
            with (out / f"{command}.csv").open("a", encoding="utf-8") as fh:
                fh.write(append)
        assert main([command, "--range", f"5:{hi}", "--out-dir", str(out),
                     *(["--resume"] if before else [])]) == 0
        return (out / f"{command}.svg").read_bytes()

    assert svg("ap", 300, before=100) == svg("ap", 300)
    malformed = ("17,3,maybe,0.7,0;1;3,zero-in,1.0\n"
                 "19,3,true,0.7,0;1;3,zero-in,1.0,2.0\n")
    assert svg("vcdim", 60, before=13, append=malformed) == svg("vcdim", 60)


def test_resume_rejects_foreign_header(tmp_path):
    out = tmp_path / "v"
    out.mkdir()
    (out / "vcdim.csv").write_text("q,longest\n5,2\n", encoding="utf-8")
    assert main(["vcdim", "--range", "5:7", "--resume",
                 "--out-dir", str(out)]) == 2
    assert (out / "vcdim.csv").read_text(encoding="utf-8") == "q,longest\n5,2\n"


@pytest.mark.parametrize("command", ["vcdim", "ap"])
def test_resume_rejects_rows_of_another_convention(tmp_path, command, capsys):
    out = tmp_path / command
    csv_path = out / f"{command}.csv"
    assert main([command, "--range", "5:13", "--out-dir", str(out)]) == 0
    for tail in ("", "17,3"):  # "17,3": a partial last line, no newline
        with csv_path.open("a", encoding="utf-8") as fh:
            fh.write(tail)
        before = csv_path.read_bytes()
        capsys.readouterr()
        assert main([command, "--range", "5:17", "--convention", "strict",
                     "--resume", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "convention is not strict" in err
        assert "q = 5, 7, 11, 13;" in err
        assert csv_path.read_bytes() == before


def test_exact_resume_rejects_early_exit_rows(tmp_path, capsys):
    # an exact sweep must not keep an early-exit run's lower bounds
    # (q = 11 reads 2 there, its exact value is 3)
    out = tmp_path / "vcdim"
    csv_path = out / "vcdim.csv"
    assert main(["vcdim", "--range", "5:23", "--early-exit",
                 "--out-dir", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    for tail in ("", "29,3"):  # "29,3": a partial last line, no newline
        with csv_path.open("a", encoding="utf-8") as fh:
            fh.write(tail)
        before = csv_path.read_bytes()
        capsys.readouterr()
        assert main(["vcdim", "--range", "5:31", "--resume",
                     "--out-dir", str(out)]) == 2
        assert "q = 5, 7, 11, 13, 17, 19, 23;" in capsys.readouterr().err
        assert csv_path.read_bytes() == before
        assert (out / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("command, flags", [
    ("vcdim", []), ("vcdim", ["--early-exit"]), ("ap", [])])
def test_resume_reads_its_checkpoint_once(tmp_path, monkeypatch, command,
                                          flags):
    out = tmp_path / command
    csv_path = out / f"{command}.csv"
    assert main([command, "--range", "5:13", *flags,
                 "--out-dir", str(out)]) == 0
    with csv_path.open("a", encoding="utf-8") as fh:
        fh.write("17,3")  # a partial last line, cut off on resume
    reads = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(csv_path) and ("r" in mode or "+" in mode):
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    assert main([command, "--range", "5:31", *flags, "--resume",
                 "--out-dir", str(out)]) == 0
    assert len(reads) == 1
    assert [int(r["q"]) for r in read_csv(csv_path)] == primes_in_range(5, 31)


def test_early_exit_resume_keeps_exact_rows(tmp_path):
    out = tmp_path / "vcdim"
    assert main(["vcdim", "--range", "5:13", "--out-dir", str(out)]) == 0
    first = read_csv(out / "vcdim.csv")
    assert main(["vcdim", "--range", "5:31", "--resume", "--early-exit",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "vcdim.csv")
    assert rows[: len(first)] == first
    assert [int(r["q"]) for r in rows] == primes_in_range(5, 31)


def test_vcdim_manifest_records_environment_and_resources(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:40", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["numpy"] == np.__version__
    assert isinstance(env["cpu_count"], int)
    assert isinstance(env["usable_cpus"], int)
    assert 1 <= env["usable_cpus"] <= env["cpu_count"]
    use = manifest["resources"]
    assert set(use) == {"self", "children"}
    for who in use.values():
        assert set(who) == {"cpu_s", "peak_rss_mb"}
        assert all(isinstance(v, (int, float)) and v >= 0
                   for v in who.values())
    # this process has run the search and holds numpy
    assert use["self"]["cpu_s"] > 0 and use["self"]["peak_rss_mb"] > 10


def test_manifest_save_writes_what_asdict_would(tmp_path):
    m = RunManifest(command="vcdim", parameters={"range": [5, 31],
                                                 "convention": "zero-in"},
                    started_at="2024-01-01T00:00:00")
    m.items += [{"q": 29, "status": "done", "vcdim": 3, "witness": (0, 1, 3),
                 "nodes_by_depth": [0, 0, 1, 2]},
                {"q": 31, "status": "error", "error": "stopped"}]
    m.outputs.append({"path": "vcdim.csv", "kind": "csv"})
    text = m.save(tmp_path).read_text(encoding="utf-8")
    assert text == json.dumps(dataclasses.asdict(m), indent=2) + "\n"


def test_manifest_write_failure_keeps_previous(tmp_path):
    out = tmp_path / "m"
    out.mkdir()
    previous = RunManifest(command="ap", parameters={}).save(out).read_text()
    # A file-size limit below the new manifest's length makes its write
    # fail part way, as a full disk would.
    child = textwrap.dedent("""
        import resource, sys
        from pathlib import Path
        from residuevc.cli import RunManifest
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, hard))
        try:
            RunManifest(command="vcdim", parameters={"pad": "x" * 4096}
                        ).save(Path(sys.argv[1]))
        except OSError:
            sys.exit(3)
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(residuevc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child, str(out)], env=env,
                          timeout=60)
    assert proc.returncode == 3
    assert (out / "manifest.json").read_text() == previous
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_manifest_save_failure_in_process_keeps_previous(tmp_path):
    # the guarantee above, in this process: ``json.dumps`` refuses a value
    # after the temporary file is opened
    out = tmp_path / "m"
    out.mkdir()
    previous = RunManifest(command="ap", parameters={}).save(out).read_text()
    with pytest.raises(TypeError):
        RunManifest(command="vcdim", parameters={"bad": object()}).save(out)
    assert (out / "manifest.json").read_text() == previous
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_verify_counts_forced_violations_as_failures(tmp_path, monkeypatch,
                                                     capsys):
    from residuevc import weil
    monkeypatch.setattr(weil, "char_sum", lambda C, spec: complex(C.q))
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "13", "--samples", "5",
                 "--out-dir", str(out)]) == 1
    rows = read_csv(out / "verify.csv")
    weil_rows = [r for r in rows if r["check"] == "weil"]
    assert [r["q"] for r in weil_rows] == ["5", "7", "11", "13"]
    assert all(r["status"] == "FAIL" and r["violations"] == r["instances"]
               for r in weil_rows)
    assert all(r["status"] == "ok" for r in rows if r["check"] != "weil")
    total = sum(int(r["violations"]) for r in rows)
    assert json.loads((out / "manifest.json").read_text())[
        "parameters"]["violations"] == total > 0
    assert f"verify: {total} violation(s)" in capsys.readouterr().out


def test_vcdim_manifest_work_counters(tmp_path):
    out = tmp_path / "v"
    assert main(["vcdim", "--range", "5:31", "--out-dir", str(out)]) == 0
    items = json.loads((out / "manifest.json").read_text())["items"]
    assert items and all(i["nodes"] == sum(i["nodes_by_depth"]) >= 0
                         and i["cells"] % i["q"] == 0 for i in items)
    assert all(i["pair_cells"] >= 0 for i in items)
    assert any(i["pair_cells"] > 0 for i in items)
    assert set(read_csv(out / "vcdim.csv")[0]) == {
        "q", "vcdim", "exact", "alpha_q", "witness", "convention",
        "elapsed_ms"}


def test_verify_skips_checks_over_budget(tmp_path, monkeypatch):
    from residuevc import weil
    monkeypatch.setattr(weil, "OP_BUDGET", 22)  # OP_BUDGET // q = 0 from 23
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "31", "--r", "2", "--samples", "50",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "verify.csv")
    skipped = {int(r["q"]) for r in rows if r["status"] == "skipped"}
    assert skipped == {23, 29, 31}
    assert all(r["check"] == "shattering"
               for r in rows if r["status"] == "skipped")
    assert {(r["check"], int(r["q"])) for r in rows} == {
        (c, q) for c in ("weil", "equidistribution", "shattering")
        for q in primes_in_range(5, 31)}
    items = json.loads((out / "manifest.json").read_text())["items"]
    partial = {i["q"]: i for i in items if i["status"] == "partial"}
    assert set(partial) == {23, 29, 31}
    assert all(set(i["skipped"]) == {"shattering"}
               and "budget" in i["skipped"]["shattering"]
               for i in partial.values())


def test_verify_builds_two_character_tables_per_index(tmp_path, monkeypatch):
    # one for the Weil and equidistribution checks, and the one the
    # theorem check builds for itself
    from residuevc import cli, weil
    built = Counter()
    real = cli.character_table

    def counting(F, r):
        built[F.q, r] += 1
        return real(F, r)

    monkeypatch.setattr(cli, "character_table", counting)
    monkeypatch.setattr(weil, "character_table", counting)
    assert main(["verify", "--q-max", "31", "--r", "2,3", "--samples", "20",
                 "--out-dir", str(tmp_path / "w")]) == 0
    assert built == {(q, r): 2 for q in primes_in_range(5, 31)
                     for r in (2, 3) if (q - 1) % r == 0}

def _interrupt_at(stop_q, monkeypatch):
    """Make ``sweep``, as the CLI calls it, raise KeyboardInterrupt when it
    reaches the prime ``stop_q``."""
    from residuevc import cli
    sweep = cli.sweep

    def interrupted_sweep(*args, **kwargs):
        for r in sweep(*args, **kwargs):
            if r.q == stop_q:
                raise KeyboardInterrupt
            yield r

    monkeypatch.setattr(cli, "sweep", interrupted_sweep)


@pytest.mark.parametrize("command, key", [("vcdim", "vcdim"),
                                          ("ap", "longest")])
def test_interrupt_saves_manifest_and_resumes(tmp_path, monkeypatch,
                                              command, key):
    out = tmp_path / command
    csv_path = out / f"{command}.csv"
    with monkeypatch.context() as patch:
        _interrupt_at(17, patch)
        with pytest.raises(KeyboardInterrupt):
            main([command, "--range", "5:31", "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "interrupted" and manifest["finished_at"]
    assert [i["q"] for i in manifest["items"]] == [5, 7, 11, 13]
    assert all(i["status"] == "ok" for i in manifest["items"])
    assert manifest["outputs"] == [str(csv_path)]
    assert [int(r["q"]) for r in read_csv(csv_path)] == [5, 7, 11, 13]

    assert main([command, "--range", "5:31", "--resume",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert [i["q"] for i in manifest["items"]
            if i["status"] == "ok"] == primes_in_range(17, 31)
    fresh = tmp_path / "fresh"
    assert main([command, "--range", "5:31", "--out-dir", str(fresh)]) == 0
    assert ([(r["q"], r[key]) for r in read_csv(csv_path)]
            == [(r["q"], r[key]) for r in read_csv(fresh / f"{command}.csv")])


def _snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _age_manifest(out):
    """Backdate the saved manifest's start, so a new run's start differs."""
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["started_at"] = "2000-01-01T00:00:00"
    path.write_text(json.dumps(manifest))


def test_prob_interrupt_over_previous_run(tmp_path, monkeypatch):
    from residuevc import cli
    out = tmp_path / "p"
    argv = ["prob", "--n", "5:6", "--trials", "10", "--density", "3",
            "--seed", "2", "--out-dir", str(out)]
    assert main(argv) == 0
    _age_manifest(out)
    scan = cli.interface_scan

    def interrupted_scan(n, *args, **kwargs):
        if n == 6:
            raise KeyboardInterrupt
        return scan(n, *args, **kwargs)

    monkeypatch.setattr(cli, "interface_scan", interrupted_scan)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["started_at"] != "2000-01-01T00:00:00"
    assert manifest["finished_at"]
    assert manifest["outputs"] == [str(out / "prob_n5.csv"),
                                   str(out / "prob_n5.svg")]
    assert {i["n"] for i in manifest["items"]} <= {5}


def test_verify_interrupt_over_previous_run(tmp_path, monkeypatch):
    from residuevc import cli
    out = tmp_path / "w"
    argv = ["verify", "--q-max", "31", "--samples", "50", "--out-dir", str(out)]
    assert main(argv) == 0
    _age_manifest(out)
    check = cli.verify_shattering_theorem

    def interrupted_check(F, *args, **kwargs):
        if F.q == 13:
            raise KeyboardInterrupt
        return check(F, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_shattering_theorem", interrupted_check)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["started_at"] != "2000-01-01T00:00:00"
    assert manifest["finished_at"]
    assert manifest["outputs"] == [str(out / "verify.csv")]
    assert [i["q"] for i in manifest["items"]] == [5, 7, 11]


@pytest.mark.parametrize("bad", [["--ratio-lo", "0"],
                                 # an empty ratio window
                                 ["--ratio-lo", "0.8", "--ratio-hi", "0.8"],
                                 ["--ratio-lo", "0.9", "--ratio-hi", "0.8"],
                                 # n = 1 at primes of the window
                                 ["--n", "1:1", "--ratio-lo", "0.1",
                                  "--ratio-hi", "0.4"],
                                 # n = 1 is fine, n = 2's window reaches 2^40
                                 ["--n", "1:2", "--ratio-lo", "0.05",
                                  "--ratio-hi", "0.1", "--density", "0"],
                                 # n = 5 has no prime, n = 6 keeps q = 5 < n
                                 ["--n", "5:6", "--ratio-lo", "2.5",
                                  "--ratio-hi", "3"],
                                 # NTooLarge: 64 bits exceed the pattern bound
                                 ["--n", "64:64", "--ratio-lo", "9",
                                  "--ratio-hi", "10", "--density", "100"]])
def test_prob_misuse_leaves_previous_run(tmp_path, bad, capsys):
    out = tmp_path / "p"
    argv = ["prob", "--n", "6:6", "--trials", "10", "--density", "5",
            "--seed", "2", "--out-dir", str(out)]
    assert main(argv) == 0
    assert read_csv(out / "prob_n6.csv")  # so --trials 0 reaches a point
    before = _snapshot(out)
    assert main(argv + bad) == 2
    assert "residuevc:" in capsys.readouterr().err
    assert _snapshot(out) == before


_PREVIOUS = {"verify": ["verify", "--q-max", "40", "--samples", "50"],
             "prob": ["prob", "--n", "6:6", "--trials", "5", "--density", "3"]}


@pytest.mark.parametrize("command, bad", [
    ("verify", "--seed=-1"), ("verify", "--epsilon=nan"),
    ("verify", "--epsilon=inf"), ("verify", "--epsilon=-inf"),
    # a check over no size or no samples checks nothing
    ("verify", "--n-max=0"), ("verify", "--n-max=-1"),
    ("verify", "--samples=-5"), ("verify", "--samples=0"),
    ("prob", "--seed=-1"), ("prob", "--trials=0"),
    ("prob", "--density=inf"), ("prob", "--density=nan"),
    ("prob", "--ratio-lo=nan"), ("prob", "--ratio-hi=inf")])
def test_non_finite_or_negative_argument_rejected(tmp_path, command, bad,
                                                  capsys):
    out = tmp_path / "o"
    argv = _PREVIOUS[command] + ["--out-dir", str(out)]
    assert main(argv) == 0
    before = _snapshot(out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [bad])
    assert exc.value.code == 2
    assert bad.partition("=")[0] in capsys.readouterr().err
    assert _snapshot(out) == before


def test_verify_past_pigeonhole_reports_failures(tmp_path):
    # from q = 11 on, eps = -1 asks for n* with 2^n* > q - n*
    out = tmp_path / "w"
    assert main(["verify", "--q-max", "40", "--epsilon=-1", "--samples", "50",
                 "--out-dir", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    failed = [r for r in read_csv(out / "verify.csv") if r["status"] == "FAIL"]
    assert {r["check"] for r in failed} == {"shattering"}
    assert "11" in {r["q"] for r in failed}


@pytest.mark.parametrize("previous, refused", [
    (["prob", "--n", "6:6", "--trials", "10", "--density", "5"],
     ["prob", "--n", "23:23"]),
    (["vcdim", "--range", "5:13"], ["vcdim", "--range", "5:2147483648"]),
    (["ap", "--range", "5:13"], ["ap", "--range", "5:2147483648"]),
    (["verify", "--q-max", "13"], ["verify", "--q-max", "2147483648"]),
])
def test_sieve_past_max_modulus_leaves_previous_run(tmp_path, previous,
                                                    refused):
    out = tmp_path / "o"
    assert main(previous + ["--out-dir", str(out)]) == 0
    before = _snapshot(out)
    # A 1 GiB address-space cap turns a sieve of 2^31 bytes or more into a
    # MemoryError, so the child cannot exhaust the machine's memory.
    child = textwrap.dedent("""
        import resource, sys
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
        from residuevc.cli import main
        sys.exit(main(sys.argv[1:]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(residuevc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child, *refused,
                           "--out-dir", str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "2^31" in proc.stderr
    assert _snapshot(out) == before
