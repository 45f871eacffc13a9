"""tools/cycle_digest.py, the byte-identity check over the benchmark cycles."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "cycle_digest.py"
# every output byte of every workload at one OpenBLAS thread, as
#   OPENBLAS_NUM_THREADS=1 python3 tools/cycle_digest.py --out tests/data/digest.json
# writes it; a change that moves output bytes rewrites it in the same commit
DIGEST_PATH = Path(__file__).resolve().parent / "data" / "digest.json"
README_PATH = TOOL_PATH.parents[1] / "README.md"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cycle_digest", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_cycle_digest_is_reproducible(tool):
    first = tool.digest(["scan"], [205])
    second = tool.digest(["scan"], [205])
    # two ops, each with exit, stdout, stderr and four written files
    assert len(first) == 14
    assert {"scan/205/0/exit", "scan/205/1/recovered.raw"} <= set(first)
    assert first == second


def test_compare_lists_differing_and_one_sided_keys(tool, tmp_path, capsys):
    a = {"x/1/0/exit": "aa", "x/1/0/stdout": "bb", "x/1/1/exit": "cc"}
    b = {"x/1/0/exit": "aa", "x/1/0/stdout": "zz", "x/1/2/exit": "dd"}
    assert tool.compare(a, b) == ["x/1/0/stdout", "x/1/1/exit", "x/1/2/exit"]
    paths = []
    for name, side in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(side))
    assert tool.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().err.splitlines() == ["3 of 3 entries identical"]
    assert tool.main(["--compare", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["x/1/0/stdout", "x/1/1/exit", "x/1/2/exit"]
    # after the identical count: differing keys per workload and final part
    assert captured.err.splitlines() == ["1 of 4 entries identical", "x exit 2", "x stdout 1"]
    many = {"located/111/top/stdout": "a", "located/205/top/stdout": "a",
            "located/205/top/recovered.raw": "a", "scan/111/0/stdout": "a",
            "help/psf": "a", "psf/97x64-5-63--2.5/psf.raw": "a"}
    assert tool.tally(tool.compare(many, {})) == {
        ("located", "stdout"): 2, ("located", "recovered.raw"): 1, ("scan", "stdout"): 1,
        ("help", "psf"): 1, ("psf", "psf.raw"): 1,
    }


def test_a_written_digest_records_the_blas_thread_count(tool, tmp_path, capsys):
    path = tmp_path / "digest.json"
    assert tool.main(["--workloads", "help", "--out", str(path)]) == 0
    written = json.loads(path.read_text())
    key = tool.BLAS_THREADS_KEY
    assert set(written) == {*tool.ENVIRONMENT_KEYS, *tool.digest(["help"], [])}
    assert {k: written[k] for k in tool.ENVIRONMENT_KEYS} == tool.environment()
    assert written["numpy"] == np.__version__
    count = tool.blas_threads()
    assert count is None or count >= 1
    assert written[key] == str(count)
    # a digest taken at another count lists the key, and one written before
    # the key existed lists it as one-sided
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**written, key: "64"}))
    assert tool.main(["--compare", str(path), str(other)]) == 1
    assert capsys.readouterr().out.split() == [key]
    assert tool.compare({k: v for k, v in written.items() if k != key}, written) == [key]


def test_the_outputs_match_the_committed_digest(tool, tmp_path):
    # byte identity of every seeded output: the whole digest, taken in a
    # fresh process at one OpenBLAS thread, equals the committed one. Under
    # another numpy, OpenBLAS or core the last bits of a product may move,
    # so a mismatch there fails on its own, naming both
    committed = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    out = tmp_path / "digest.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(TOOL_PATH), "--out", str(out)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    written = json.loads(out.read_text(encoding="utf-8"))
    for key in tool.ENVIRONMENT_KEYS:
        if written.get(key) != committed.get(key):
            pytest.fail(f"{DIGEST_PATH.name} was taken at {key} {committed.get(key)}, "
                        f"this run is at {key} {written.get(key)}")
    moved = tool.compare(committed, written)
    assert not moved, f"{len(moved)} keys differ from {DIGEST_PATH.name}: {moved}"


def test_the_readme_states_the_digests_counts(tool):
    # README "Tests" gives the workload count, the seeds and the committed
    # digest's key count, its environment entries aside
    text = " ".join(README_PATH.read_text(encoding="utf-8").split())
    found = re.search(r"It covers (\d+) workloads at seeds ([^:]+): ([\d,]+) keys, plus", text)
    assert found, "README no longer states the digest's counts"
    committed = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    assert int(found[1]) == len(tool.WORKLOADS)
    assert re.findall(r"\d+", found[2]) == [str(seed) for seed in tool.SEEDS]
    assert int(found[3].replace(",", "")) == len(set(committed) - set(tool.ENVIRONMENT_KEYS))


def test_help_workload_hashes_every_subcommand(tool):
    digests = tool.digest(["help"], [205])
    names = ("psf", "table", "scan", "noise", "recover", "two-point")
    assert set(digests) == {f"help/{name}" for name in names}
    assert len(set(digests.values())) == len(names)
    assert tool.digest(["help"], []) == digests


def test_psf_workload_hashes_every_export_of_each_setting(tool):
    digests = tool.digest(["psf"], [205])
    whats = ("exit", "stdout", "stderr", "psf.raw", "psf.pgm", "otf.raw", "psf_manifest.txt")
    names = ["-".join(setting) for setting in tool.PSF_SETTINGS]
    assert set(digests) == {f"psf/{name}/{what}" for name in names for what in whats}
    assert len({digests[f"psf/{name}/psf.raw"] for name in names}) == len(names)
    assert tool.digest(["psf"], []) == digests


def test_noisy_table_workload_hashes_every_run_at_each_seed(tool):
    # no benchmark cycle runs `table --noise-psnr`; this set gates its bytes
    assert "noisy-table" in tool.WORKLOADS
    digests = tool.digest(["noisy-table"], [205, 111])
    runs = [(f"{domain}-r{ring}-{field}", domain)
            for field, _ in tool.NOISY_TABLE_FIELDS for ring in tool.NOISY_TABLE_RINGS
            for domain in ("spatial", "frequency")]
    assert len(runs) == 8
    whats = ("exit", "stdout", "stderr", "trials_{}.csv", "ae_{}.csv", "ad_{}.csv",
             "manifest_{}.txt")
    assert set(digests) == {f"noisy-table/{seed}/{name}/{what.format(domain)}"
                            for seed in (205, 111) for name, domain in runs for what in whats}
    assert {digests[f"noisy-table/205/{name}/exit"] for name, _ in runs} == {tool._hash(b"0")}
    trials = {digests[f"noisy-table/{seed}/{name}/trials_{domain}.csv"]
              for seed in (205, 111) for name, domain in runs}
    assert len(trials) == 2 * len(runs)
    assert tool.digest(["noisy-table"], [205]) == {
        key: value for key, value in digests.items() if key.startswith("noisy-table/205/")
    }


def test_failed_trials_workload_hashes_every_run_at_each_seed(tool):
    # no other entry gates a summary row whose trials all failed
    assert "failed-trials" in tool.WORKLOADS
    digests = tool.digest(["failed-trials"], [205, 111])
    whats = {
        "table": ("exit", "stdout", "stderr", "trials_spatial.csv", "ae_spatial.csv",
                  "ad_spatial.csv", "manifest_spatial.txt"),
        "noise": ("exit", "stdout", "stderr", "noise_sweep.csv", "noise_manifest.txt"),
    }
    assert set(tool.FAILED_TRIALS_RUNS) == set(whats)
    assert set(digests) == {f"failed-trials/{seed}/{name}/{what}"
                            for seed in (205, 111) for name in whats for what in whats[name]}
    # both commands record their failures and exit 0
    assert {digests[f"failed-trials/{seed}/{name}/exit"]
            for seed in (205, 111) for name in whats} == {tool._hash(b"0")}
    assert (digests["failed-trials/205/table/trials_spatial.csv"]
            != digests["failed-trials/111/table/trials_spatial.csv"])
    assert tool.digest(["failed-trials"], [205]) == {
        key: value for key, value in digests.items() if key.startswith("failed-trials/205/")
    }


def test_scan_field_workload_hashes_both_domains_once(tool):
    # a field other than the sample's: the image domain solves with that
    # field's kernel, the transform domain refuses it; on the sample's own
    # field both domains scan in 2x3 tiles and write the blurred preview too
    assert "scan-field" in tool.WORKLOADS
    digests = tool.digest(["scan-field"], [205])
    spatial = ("exit", "stdout", "stderr", "sample.raw", "sample.pgm", "recovered.raw",
               "recovered.pgm", "scan_manifest.txt")
    assert set(digests) == ({f"scan-field/spatial/{what}" for what in spatial}
                            | {f"scan-field/frequency/{what}" for what in spatial[:3]}
                            | {f"scan-field/{domain}-2x3/{what}"
                               for domain in ("spatial", "frequency")
                               for what in (*spatial, "blurred.pgm")})
    assert digests["scan-field/spatial/exit"] == tool._hash(b"0")
    assert digests["scan-field/frequency/exit"] == tool._hash(b"2")
    assert {digests[f"scan-field/{domain}-2x3/exit"]
            for domain in ("spatial", "frequency")} == {tool._hash(b"0")}
    assert tool.digest(["scan-field"], []) == digests


def test_located_workload_hashes_every_frame_at_each_seed(tool):
    # recover without --roi on border, middle and non-square ROIs, and on
    # finite frames too large to solve; every blurred frame is located and
    # recovered, and the large ones are refused (exit 2, nothing written):
    # by the solve at 1e307, by the centroid at 1.7e308
    assert "located" in tool.WORKLOADS
    digests = tool.digest(["located"], [205, 111])
    solved = ("exit", "stdout", "stderr", "recovered.raw", "recovered.pgm",
              "recover_manifest.txt")
    assert any(frame[1][0] != frame[1][1] for frame in tool.LOCATED_FRAMES.values())
    assert set(digests) == (
        {f"located/{seed}/{name}/{what}"
         for seed in (205, 111) for name in tool.LOCATED_FRAMES for what in solved}
        | {f"located/{seed}/{name}/{what}"
           for seed in (205, 111) for name in tool.LOCATED_HUGE for what in solved[:3]}
    )
    assert {digests[f"located/{seed}/{name}/exit"]
            for seed in (205, 111) for name in tool.LOCATED_FRAMES} == {tool._hash(b"0")}
    assert {digests[f"located/{seed}/{name}/exit"]
            for seed in (205, 111) for name in tool.LOCATED_HUGE} == {tool._hash(b"2")}
    for name in tool.LOCATED_FRAMES:
        assert (digests[f"located/205/{name}/recovered.raw"]
                != digests[f"located/111/{name}/recovered.raw"])
    assert tool.digest(["located"], [205]) == {
        key: value for key, value in digests.items() if key.startswith("located/205/")
    }


def test_solvers_workload_hashes_every_spelling_in_each_domain_once(tool):
    # every --solver spelling through table, scan and recover; a name the
    # domain lacks is refused (exit 2, nothing written); and recover --clamp
    # in each domain
    assert "solvers" in tool.WORKLOADS
    digests = tool.digest(["solvers"], [205])
    own = {"spatial": {"direct", "lsq", "truncated", "least_squares"},
           "frequency": {"direct", "lsq", "truncated", "direct_complex", "stacked_real_lsq"}}
    files = {"table": ("trials_{}.csv", "ae_{}.csv", "ad_{}.csv", "manifest_{}.txt"),
             "scan": ("sample.raw", "sample.pgm", "recovered.raw", "recovered.pgm",
                      "blurred.pgm", "scan_manifest.txt"),
             "recover": ("recovered.raw", "recovered.pgm", "recover_manifest.txt")}
    expected = set()
    for command, names in files.items():
        for domain in ("spatial", "frequency"):
            for solver in tool.SOLVER_SPELLINGS:
                key = f"solvers/{command}-{domain}-{solver}"
                written = [n.format(domain) for n in names] if solver in own[domain] else []
                expected |= {f"{key}/{what}" for what in ("exit", "stdout", "stderr", *written)}
                code = b"0" if solver in own[domain] else b"2"
                assert digests[f"{key}/exit"] == tool._hash(code)
    assert set(tool.CLAMP_RUNS) == {"recover-spatial-clamp", "recover-frequency-clamp"}
    for name in tool.CLAMP_RUNS:
        expected |= {f"solvers/{name}/{what}" for what in ("exit", "stdout", "stderr",
                                                           *files["recover"])}
        assert digests[f"solvers/{name}/exit"] == tool._hash(b"0")
    assert set(digests) == expected
    assert tool.digest(["solvers"], []) == digests


def test_refusals_workload_hashes_every_run_once(tool):
    # integer flags no array or float64 can carry are refused (exit 2,
    # nothing written); gains at the float64 limits refuse or export a kernel
    assert "refusals" in tool.WORKLOADS
    digests = tool.digest(["refusals"], [205])
    exports = {"psf-gain-1e-310", "psf-gain-1e-320"}
    written = ("psf.raw", "psf.pgm", "otf.raw", "psf_manifest.txt")
    assert set(digests) == {
        f"refusals/{name}/{what}"
        for name in tool.REFUSAL_RUNS
        for what in ("exit", "stdout", "stderr", *(written if name in exports else ()))
    }
    for name in tool.REFUSAL_RUNS:
        assert digests[f"refusals/{name}/exit"] == tool._hash(b"0" if name in exports else b"2")
    assert tool.digest(["refusals"], []) == digests


def _table_files(domain):
    return tuple(f"{what}_{domain}.{ext}" for what, ext in
                 (("trials", "csv"), ("ae", "csv"), ("ad", "csv"), ("manifest", "txt")))


def test_singular_workload_hashes_every_run_once(tool):
    # the table marks its structurally singular sizes, and its transform
    # blocks whose passband entries fall short of the region's rank, and
    # writes every file; noise records each level as failed; recover and
    # scan refuse (exit 4 for a singular system, 2 for such a block; nothing
    # written). A ringed 4x4 block keeps passband entries enough: table,
    # noise and recover solve it
    assert "singular" in tool.WORKLOADS
    digests = tool.digest(["singular"], [205])
    noise = ("noise_sweep.csv", "noise_manifest.txt")
    written = {
        "table-9-11": (_table_files("spatial"), "0"),
        "noise-cutoff-0.5": (noise, "0"),
        "recover-10x10": ((), "4"),
        "scan-cutoff-0.5": ((), "4"),
        "table-frequency-5-7": (_table_files("frequency"), "0"),
        "table-frequency-4-6-r2": (_table_files("frequency"), "0"),
        "noise-frequency-4-r2": (noise, "0"),
        "recover-frequency-4x4-r2": (("recovered.raw", "recovered.pgm", "recover_manifest.txt"),
                                     "0"),
        "recover-frequency-6x6": ((), "2"),
        "scan-frequency-6x6": ((), "2"),
    }
    assert set(written) == set(tool.SINGULAR_RUNS)
    assert set(digests) == {
        f"singular/{name}/{what}"
        for name, (files, _) in written.items()
        for what in ("exit", "stdout", "stderr", *files)
    }
    for name, (_, code) in written.items():
        assert digests[f"singular/{name}/exit"] == tool._hash(code.encode())
    assert tool.digest(["singular"], []) == digests


def test_loud_workload_hashes_every_table_once(tool):
    # every row of these tables fails (the digests pin how), and each table
    # still exits 0 and writes every file; a scan whose error overflows is
    # refused (exit 2, nothing written)
    assert "loud" in tool.WORKLOADS
    digests = tool.digest(["loud"], [205])
    tables = {name for name, argv in tool.LOUD_RUNS.items() if argv[0] == "table"}
    assert set(digests) == {
        f"loud/{name}/{what}"
        for name, argv in tool.LOUD_RUNS.items()
        for what in ("exit", "stdout", "stderr",
                     *(_table_files(argv[argv.index("--domain") + 1]) if name in tables else ()))
    }
    assert {name.split("-")[1] for name in tool.LOUD_RUNS} == {"spatial", "frequency"}
    assert set(tool.LOUD_RUNS) - tables == {"scan-spatial-1e200", "scan-frequency-1e200"}
    for name in tool.LOUD_RUNS:
        assert digests[f"loud/{name}/exit"] == tool._hash(b"0" if name in tables else b"2")
    assert tool.digest(["loud"], []) == digests


def test_many_trials_workload_runs_a_table_past_numpys_pairwise_block(tool, monkeypatch):
    # the summary of a size of 130 trials sums past numpy's 128-element
    # pairwise block, in each domain
    runs = tool.PER_SEED["many-trials"]("base", 205)
    assert set(runs) == set(tool.MANY_TRIALS_RUNS)
    long = {f"table-{domain}-130": domain for domain in ("spatial", "frequency")}
    for name, domain in long.items():
        assert runs[name] == ["table", "--domain", domain, "--sizes", "2", "--trials", "130",
                              "--seed", "205", "--out", str(Path("base", name))]
    monkeypatch.setattr(tool, "MANY_TRIALS_RUNS",
                        {name: tool.MANY_TRIALS_RUNS[name] for name in long})
    digests = tool.digest(["many-trials"], [205])
    whats = ("exit", "stdout", "stderr", "trials_{}.csv", "ae_{}.csv", "ad_{}.csv",
             "manifest_{}.txt")
    assert set(digests) == {f"many-trials/205/{name}/{what.format(domain)}"
                            for name, domain in long.items() for what in whats}
    assert {digests[f"many-trials/205/{name}/exit"] for name in long} == {tool._hash(b"0")}


def test_cli_paths_workload_hashes_every_run_once(tool, monkeypatch):
    # two-point's closed forms, the --config branch of the option fold and
    # recover's kernel file, which no other run reaches; every run exits 0,
    # and the recover that reads its flags from a config writes the bytes
    # of the solvers workload's recover given them as flags
    assert "cli-paths" in tool.WORKLOADS
    digests = tool.digest(["cli-paths"], [205])
    recover = ("recovered.raw", "recovered.pgm", "recover_manifest.txt")
    written = {
        "two-point-spatial": (),
        "two-point-frequency": (),
        "table-config": _table_files("frequency"),
        "recover-config": recover,
        "psf": ("psf.raw", "psf.pgm", "otf.raw", "psf_manifest.txt"),
        "recover-psf": recover,
    }
    assert list(tool.CLI_PATH_RUNS) == list(written)
    assert set(digests) == {f"cli-paths/{name}/{what}"
                            for name, files in written.items()
                            for what in ("exit", "stdout", "stderr", *files)}
    assert len(digests) == 32
    assert {digests[f"cli-paths/{name}/exit"] for name in written} == {tool._hash(b"0")}
    assert tool.digest(["cli-paths"], []) == digests
    monkeypatch.setattr(tool, "SOLVER_RUNS", {})
    flags = tool.digest(["solvers"], [])
    for what in recover:
        assert (digests[f"cli-paths/recover-config/{what}"]
                == flags[f"solvers/recover-spatial-clamp/{what}"])


@pytest.fixture
def runs_nothing(tool, monkeypatch):
    """The commands and help texts a call would have digested, recorded, not run."""
    ran = []
    monkeypatch.setattr(tool, "_runs_digest", lambda *args: ran.append(args) or {})
    monkeypatch.setattr(tool, "help_digest", lambda: ran.append("help") or {})
    return ran


def test_digest_refuses_an_unknown_workload_before_any_run(tool, runs_nothing):
    with pytest.raises(ValueError, match="unknown workload 'tabel'") as exc:
        tool.digest(["help", "scan", "tabel"], [205])
    assert all(name in str(exc.value) for name in tool.WORKLOADS)
    assert runs_nothing == []


@pytest.mark.parametrize("argv, bad", [
    (["--workloads", "help,tabel"], "'tabel'"),
    (["--workloads", "scan", "--seeds", "205,x"], "'x'"),
], ids=["workload", "seed"])
def test_main_refuses_bad_arguments_with_a_usage_error(tool, runs_nothing, capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and bad in err
    if "tabel" in bad:
        assert all(name in err for name in tool.WORKLOADS)
    assert runs_nothing == []
