import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobius_centers.algebra import ELEMENT_SCHEMA
from mobius_centers.centers import CONJECTURE_REPORT_SCHEMA
from mobius_centers import cli
from mobius_centers.cli import _write_json, main
from mobius_centers.quotients import CLASS_REPORT_SCHEMA


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_dim_text(capsys):
    status, out, _ = run(capsys, "dim", "--algebra", "nilcoxeter", "-n", "3", "--format", "text")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split() == ["formula", "3"]
    assert lines[1].split() == ["twisted-quotient", "3"]
    assert lines[2].split() == ["commutant", "3"]
    assert lines[3].split() == ["agree", "yes"]


def test_dim_json_group_algebra(capsys):
    status, out, _ = run(capsys, "dim", "--algebra", "group", "-n", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["twisted_quotient_rank"] == 5
    assert payload["commutant_rank"] == 5
    assert not payload["formula_applies"]
    assert payload["agree"]


def test_dim_custom_params(capsys):
    status, out, _ = run(capsys, "dim", "--algebra", "1,0", "-n", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["algebra"] == "0-hecke"
    assert payload["agree"]


def test_dim_generic_pair_n6(capsys):
    status, out, _ = run(capsys, "dim", "--algebra", "2/3,1/2", "-n", "6", "--format", "json")
    assert status == 0
    assert json.loads(out) == {
        "n": 6,
        "algebra": "2/3,1/2",
        "formula": 12,
        "formula_applies": False,
        "twisted_quotient_rank": 11,
        "commutant_rank": 11,
        "agree": True,
    }


def test_classes_json_schema(capsys):
    status, out, _ = run(capsys, "classes", "--algebra", "0-hecke", "-n", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CLASS_REPORT_SCHEMA)
    sizes = sorted(len(c["members"]) for c in payload["classes"])
    assert sizes == [1, 1, 4]
    assert payload["zero_class"] == []


def test_classes_csv(capsys):
    status, out, _ = run(capsys, "classes", "--algebra", "nilcoxeter", "-n", "3", "--format", "csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "representative,size,cycle_type,length,members"
    assert lines[1] == "e,1,2.1,0,e"
    assert lines[-1].startswith("zero,2")


def test_basis_json(capsys):
    status, out, _ = run(capsys, "basis", "--algebra", "nilcoxeter", "-n", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    for entry in payload["elements"]:
        jsonschema.validate(entry["element"], ELEMENT_SCHEMA)
    words = [
        sorted(tuple(t["word"]) for t in entry["element"]["terms"])
        for entry in payload["elements"]
    ]
    assert [(1, 2), (2, 1)] in words


def test_table_text(capsys):
    status, out, _ = run(capsys, "table", "--algebra", "nilcoxeter", "-n", "3", "--format", "text")
    assert status == 0
    assert "z[e]" in out


def test_verify_all_n1(capsys):
    status, out, _ = run(capsys, "verify", "--suite", "all", "-n", "1", "--algebra", "nilcoxeter")
    assert status == 0
    assert out.strip().endswith("passed")


@pytest.mark.parametrize("suite", ["relations", "frobenius", "duality", "census"])
def test_verify_suites_pass_nc3(capsys, suite):
    status, out, _ = run(
        capsys, "verify", "--suite", suite, "-n", "3", "--algebra", "nilcoxeter",
        "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["checks"]


def test_verify_census_rejected_for_hecke(capsys):
    status, _, err = run(capsys, "verify", "--suite", "census", "-n", "3", "--algebra", "0-hecke")
    assert status == 2
    assert "census" in err


def test_basis_rejected_for_group(capsys):
    status, _, err = run(capsys, "basis", "--algebra", "group", "-n", "3")
    assert status == 2
    assert "nilcoxeter and 0-hecke" in err


def test_conjecture_json_schema(capsys):
    status, out, _ = run(capsys, "conjecture", "-n", "2", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CONJECTURE_REPORT_SCHEMA)
    assert payload["unique_complement_per_crossing_number"] is True


def test_conjecture_rejects_other_algebras(capsys):
    status, _, err = run(capsys, "conjecture", "--algebra", "nilcoxeter", "-n", "2")
    assert status == 2
    assert "0-hecke" in err


def test_unknown_algebra_is_usage_error(capsys):
    # a zero denominator is a bad value too, not a crash with exit 1
    for algebra in ("hecke", "1/0,1", "0,2/0"):
        with pytest.raises(SystemExit) as excinfo:
            main(["dim", "--algebra", algebra, "-n", "3"])
        assert excinfo.value.code == 2
        assert f"invalid parse_algebra value: '{algebra}'" in capsys.readouterr().err


def test_n_out_of_cap(capsys):
    status, _, err = run(capsys, "dim", "--algebra", "nilcoxeter", "-n", "13")
    assert status == 2
    assert "1..12" in err


class TableBuilt(Exception):
    pass


@pytest.fixture
def no_tables(monkeypatch):
    """Make building any permutation table raise TableBuilt."""
    import mobius_centers

    def refuse(n):
        raise TableBuilt(n)

    for name in ("perm", "algebra", "quotients", "centers", "cli"):
        module = getattr(mobius_centers, name)
        monkeypatch.setattr(module, "symmetric_group", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("conjecture", "-n", "7"),
        ("basis", "--algebra", "0-hecke", "-n", "7"),
        ("table", "--algebra", "0-hecke", "-n", "12"),
        ("verify", "--suite", "frobenius", "--algebra", "nilcoxeter", "-n", "7"),
        ("verify", "--suite", "all", "--algebra", "1,1", "-n", "8"),
    ],
)
def test_dense_gram_refused_before_any_table(capsys, no_tables, argv):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert "Gram matrix" in err and "n <= 6" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--algebra", "nilcoxeter", "-n", "7"),
        ("verify", "--suite", "relations", "--algebra", "0-hecke", "-n", "7"),
        ("conjecture", "-n", "6"),
    ],
)
def test_commands_within_the_gram_limit_go_ahead(no_tables, argv):
    with pytest.raises(TableBuilt):
        main(list(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--algebra", "0-hecke", "-n", "9"),
        ("classes", "--algebra", "nilcoxeter", "-n", "9", "--format", "json"),
        ("dim", "--algebra", "nilcoxeter", "-n", "12"),
        ("basis", "--algebra", "nilcoxeter", "-n", "9"),
        ("table", "--algebra", "nilcoxeter", "-n", "10"),
        ("verify", "--suite", "census", "--algebra", "nilcoxeter", "-n", "10"),
        ("verify", "--suite", "relations", "--algebra", "2/3,-1/2", "-n", "9"),
    ],
)
def test_large_table_refused_before_any_table(capsys, no_tables, argv):
    status, out, err = run(capsys, *argv)
    n = argv[argv.index("-n") + 1]
    assert status == 2
    assert out == ""
    assert f"{n}! = " in err and "n <= 8" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--algebra", "0-hecke", "-n", "8"),
        ("dim", "--algebra", "nilcoxeter", "-n", "8"),
        ("basis", "--algebra", "nilcoxeter", "-n", "8"),
        ("verify", "--suite", "census", "--algebra", "nilcoxeter", "-n", "8"),
    ],
)
def test_commands_within_the_table_limit_go_ahead(no_tables, argv):
    with pytest.raises(TableBuilt):
        main(list(argv))


# sha256 of the output, recorded before reduced words moved to the
# position-array scan; a change in any word or in the member order shows here.
CLASSES_N7_SHA256 = {
    ("nilcoxeter", "json"): "a5f2c0bcf3421c9f5d97a69a807697bf183672f7910e37e244d2ac2254b2dde4",
    ("nilcoxeter", "csv"): "3022166c75f0116b884fddf3a8521986dd8e8c0f3fcbc5ed693b0d4b81b6c69e",
    ("nilcoxeter", "text"): "bdb9c8d58a1cdc28311c4bb5ddc7c5768bc0d8ffd4840b8479ae6ac10265b07d",
    ("0-hecke", "json"): "c44d8639a9067814ddabd654d8c981bc2329929ae0b467b79ecd550898149df2",
    ("0-hecke", "csv"): "5bf921e477eae203460f77437ba943ae88b8aca0a62926b878bdf540e0bb713d",
    ("0-hecke", "text"): "c8ae8bafaed4fe3d2b097a4632372032258c8c04562a5b7e9a668255b15180e0",
    # recorded before the class report ran on basis indices
    ("group", "json"): "a061fc246536a705aa98604299d537896c438307763a19e6eb3ec06dea3a6c9c",
    ("group", "csv"): "5f5dc7539fb4a8683622280df3f1f9d47b952964debc0b25a697ac3e22c0f1d3",
    ("group", "text"): "b32a66d0b7f39dcb1b47b97dc069c52087319e84a6b3cabad08c7131b616e8f1",
}


@pytest.mark.parametrize("algebra, fmt", sorted(CLASSES_N7_SHA256))
def test_classes_n7_golden_bytes(capsys, algebra, fmt):
    status, out, _ = run(capsys, "classes", "--algebra", algebra, "-n", "7", "--format", fmt)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_N7_SHA256[algebra, fmt]


def test_classes_n7_json_output_file(tmp_path, capsys):
    # the report is written in chunks; a file gets the same bytes as stdout
    target = tmp_path / "classes.json"
    status, out, _ = run(
        capsys, "classes", "--algebra", "0-hecke", "-n", "7",
        "--format", "json", "--output", str(target),
    )
    assert status == 0
    assert out == ""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == CLASSES_N7_SHA256["0-hecke", "json"]


# sha256 of the json output at n = 8, recorded before rmul, the reduced
# words and the action tables were read off the integer tables.
CLASSES_N8_JSON_SHA256 = {
    "nilcoxeter": "b26f5bbe76c4a707f2c4fe6ed1719ff524a82a5cbb1606b25ff32487cd3eebf6",
    "0-hecke": "298b96f2f37c737867ae75401de9c6f06b8c1140395d6bc7d32ad4d8e9af2dfd",
}


@pytest.mark.parametrize("algebra", sorted(CLASSES_N8_JSON_SHA256))
def test_classes_n8_golden_bytes(capsys, algebra):
    status, out, _ = run(capsys, "classes", "--algebra", algebra, "-n", "8", "--format", "json")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_N8_JSON_SHA256[algebra]


# sha256 of the json output of the trace-dual commands at n = 6, recorded
# while `mul` still walked the whole word of every term and each class had
# its own solve.
TRACE_DUAL_N6_JSON_SHA256 = {
    ("table", "--algebra", "0-hecke"): "b14397399bf1d28b15163247550a84511bf492eba7663881f7d117c851e93bf6",
    ("basis", "--algebra", "0-hecke"): "5f496498b4478f69b50f1493636e32faa092a9269ccdceb58095a8893487a164",
    ("conjecture",): "3aa81f4da7f3dc0ca8cb910ffdc3c405802db2e1a14c5862580cd0d50f28321e",
}


@pytest.mark.parametrize("command", sorted(TRACE_DUAL_N6_JSON_SHA256))
def test_trace_dual_n6_golden_bytes(capsys, command):
    status, out, _ = run(capsys, *command, "-n", "6", "--format", "json")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DUAL_N6_JSON_SHA256[command]


# sha256 of the text and csv output of the commands that print element
# terms, recorded before their renderers shared one join.
TERMS_N5_SHA256 = {
    ("basis", "--algebra", "0-hecke", "text"): "3537fe093d378a9e378f897d45a0a5ee9ada8c881611230a041f340c77b6d8e7",
    ("basis", "--algebra", "0-hecke", "csv"): "1ad5a5dc272bc5b94cf47153077b8570ef48938a2d5e232f33cb1e70ecf12371",
    ("conjecture", "text"): "98b12b5d5f6cf40e576802c88c3a0cd4875dfc76f0a3f4bd7052242165b94941",
    ("conjecture", "csv"): "325ba2c3a4ba462208069dc57be916a3d9fa995344fddea499747df639139030",
}


@pytest.mark.parametrize("command", sorted(TERMS_N5_SHA256))
def test_terms_n5_golden_bytes(capsys, command):
    *argv, fmt = command
    status, out, _ = run(capsys, *argv, "-n", "5", "--format", fmt)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TERMS_N5_SHA256[command]


# sha256 of the output of the commands whose rows go through linalg,
# recorded before linalg took rows in one format only.
LINALG_ROUTES_SHA256 = {
    ("dim", "--algebra=nilcoxeter", "-n", "5", "--format", "json"): "fec2dc1619a4c8f52f72b1ccb00c785d6452700a017e6f45ba4f5b45b81bd3d7",
    ("dim", "--algebra=nilcoxeter", "-n", "5", "--format", "csv"): "bae5e7b88589f90f653c5707542ed6664fcb7d8f3e76bcd3328d6ddd46ba088e",
    ("dim", "--algebra=nilcoxeter", "-n", "5", "--format", "text"): "20a15b600a020ba03417db95446135ec3baaf39e3b17a56d8af6f97e851e2a90",
    ("verify", "--algebra=nilcoxeter", "--suite", "all", "-n", "4", "--format", "json"): "7abe01c58ff4918ed87d8e8345bcba953cbb260c128fbb38084cc1ea4c9ee678",
    ("verify", "--algebra=nilcoxeter", "--suite", "all", "-n", "4", "--format", "csv"): "b7ff8a023e1d9ae274afaac92e94e5c2816808ffdb301798e11f658da35ff6db",
    ("verify", "--algebra=nilcoxeter", "--suite", "all", "-n", "4", "--format", "text"): "b6a27b1f1fe9311eb808f57bf4cd67325e0468ea831559098d232aab99df3ef1",
    ("dim", "--algebra=0-hecke", "-n", "5", "--format", "json"): "5b8517915b3b203ddd2f4624bc0ef3d8b87c7c352e09bd5d41f3cb4906eaf70f",
    ("dim", "--algebra=0-hecke", "-n", "5", "--format", "csv"): "ea2535799e2c6b97ba59406952cc91a225ace21a311687af632da3e03cf90d55",
    ("dim", "--algebra=0-hecke", "-n", "5", "--format", "text"): "20a15b600a020ba03417db95446135ec3baaf39e3b17a56d8af6f97e851e2a90",
    ("verify", "--algebra=0-hecke", "--suite", "all", "-n", "4", "--format", "json"): "f2df8118dd7b55f381f786f956c91b6bd5f76a8832565273b73ceb84b80ce3a5",
    ("verify", "--algebra=0-hecke", "--suite", "all", "-n", "4", "--format", "csv"): "02aaa622d563842e5089463c66714be0c55270c5969a9c64f8467a051e3699c0",
    ("verify", "--algebra=0-hecke", "--suite", "all", "-n", "4", "--format", "text"): "3725840640a8e8a329673db4e151a7aec287a04bbab6c93c058b024346972bc8",
    ("dim", "--algebra=group", "-n", "5", "--format", "json"): "646416df0938d0e5d1af6de191ab65d158c49c9efda3d540e50f951756410c80",
    ("dim", "--algebra=group", "-n", "5", "--format", "csv"): "90e56e07a55b44f916dbd84e71657449f1330c286b121b1b6cdd28c2c20aac0b",
    ("dim", "--algebra=group", "-n", "5", "--format", "text"): "9834a57484b59e63edc2898f768e1d21da79cbc984a270f01b05d176b190ebbf",
    ("verify", "--algebra=group", "--suite", "all", "-n", "4", "--format", "json"): "9f81903b3eb29204f4cf079854e7553c4d8ce20fed223ca9409280a70126c2c3",
    ("verify", "--algebra=group", "--suite", "all", "-n", "4", "--format", "csv"): "02aaa622d563842e5089463c66714be0c55270c5969a9c64f8467a051e3699c0",
    ("verify", "--algebra=group", "--suite", "all", "-n", "4", "--format", "text"): "3725840640a8e8a329673db4e151a7aec287a04bbab6c93c058b024346972bc8",
    ("dim", "--algebra=2/3,1/2", "-n", "5", "--format", "json"): "8e88d52da4a3ada18a7d4b76e3a469c9a7c46e80659f1ecd3b179f493ea498f7",
    ("dim", "--algebra=2/3,1/2", "-n", "5", "--format", "csv"): "05d21915e722810347b473b16f6b2226782031bd1253e89cc40a27dbc2c1066c",
    ("dim", "--algebra=2/3,1/2", "-n", "5", "--format", "text"): "9834a57484b59e63edc2898f768e1d21da79cbc984a270f01b05d176b190ebbf",
    ("verify", "--algebra=2/3,1/2", "--suite", "all", "-n", "4", "--format", "json"): "f2140c4a00f01e83919071ec1fc083215c940bb783d1859914ed0f004311886a",
    ("verify", "--algebra=2/3,1/2", "--suite", "all", "-n", "4", "--format", "csv"): "02aaa622d563842e5089463c66714be0c55270c5969a9c64f8467a051e3699c0",
    ("verify", "--algebra=2/3,1/2", "--suite", "all", "-n", "4", "--format", "text"): "3725840640a8e8a329673db4e151a7aec287a04bbab6c93c058b024346972bc8",
    ("basis", "--algebra=nilcoxeter", "-n", "5", "--format", "json"): "ba684278d5791f73a0e84fbe138df5fe57806acd83491e6486fc33e1b821749e",
    ("basis", "--algebra=nilcoxeter", "-n", "5", "--format", "csv"): "27d5f56926e50eb372f56324a2b7f4a5ed563481cfc38dbc6f0ea3b301bf722c",
    ("basis", "--algebra=nilcoxeter", "-n", "5", "--format", "text"): "74f14d5588aa54455fb2458ec28b6eb0c530f172b2dcff62cb27169ff00c5ec8",
    ("table", "--algebra=nilcoxeter", "-n", "5", "--format", "json"): "acfa8747131fa6f216a449e384eef9432ab3fd2441b703f881f1f53b89c46040",
    ("table", "--algebra=nilcoxeter", "-n", "5", "--format", "csv"): "5220f2493b2318d41212eb61212fd6c9c7a1b54987a3d98ee762b115b4d8d9f0",
    ("table", "--algebra=nilcoxeter", "-n", "5", "--format", "text"): "0eda5affd239c2335c1291fe691b605aca43c4577557ef17eb645cce3e263e21",
}


@pytest.mark.parametrize("argv", sorted(LINALG_ROUTES_SHA256))
def test_linalg_routes_golden_bytes(capsys, argv):
    status, out, _ = run(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LINALG_ROUTES_SHA256[argv]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = run(
        capsys, "classes", "--algebra", "nilcoxeter", "-n", "3",
        "--format", "json", "--output", str(target),
    )
    assert status == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    jsonschema.validate(payload, CLASS_REPORT_SCHEMA)


def test_output_file_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise AssertionError("the command ran before --output was checked")

    monkeypatch.setitem(cli._COMMANDS, "dim", fail)
    target = tmp_path / "missing" / "out.json"
    status, out, err = run(
        capsys, "dim", "--algebra", "1,1", "-n", "3", "--output", str(target),
    )
    assert status == 2
    assert out == ""
    assert err.startswith("error: cannot write --output: ")
    assert str(target) in err
    assert not target.parent.exists()


def test_output_naming_a_directory_is_usage_error(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise AssertionError("the command ran before --output was checked")

    monkeypatch.setitem(cli._COMMANDS, "dim", fail)
    status, out, err = run(
        capsys, "dim", "--algebra", "1,1", "-n", "3", "--output", str(tmp_path),
    )
    with pytest.raises(IsADirectoryError) as opened:
        open(tmp_path, "w", encoding="utf-8")
    assert status == 2
    assert out == ""
    # the message open() itself gives
    assert err == f"error: cannot write --output: {opened.value}\n"


def test_cli_import_leaves_out_dataclasses_and_csv():
    # Every command pays for what importing the CLI imports: dataclasses
    # (with inspect) and the building of the record classes took about a
    # third of that import, and only CSV output needs csv.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import mobius_centers.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []


def child_peak_kb(*argv):
    """Run the CLI on ``argv`` in a child process; its VmHWM in kB, the peak
    of its own address space: its ru_maxrss would include the resident set
    of this process, which Linux carries into a child at exec."""
    code = (
        "import contextlib, io, sys\n"
        "from mobius_centers.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[1:])\n"
        "status_lines = open('/proc/self/status').read().splitlines()\n"
        "peak = next(line.split()[1] for line in status_lines if line.startswith('VmHWM:'))\n"
        "print(status, peak)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    status, peak_kb = map(int, done.stdout.split())
    assert status == 0
    return peak_kb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_relations_n8_peak_memory():
    # Products of generators push through the lmul rows directly; a table
    # of every generator's left terms took this command to 69 MB.
    peak_kb = child_peak_kb("verify", "--suite", "relations", "--algebra", "0-hecke", "-n", "8")
    assert peak_kb < 50 * 1024, f"peak {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_commutant_n8_peak_memory():
    # The commutant rows come off the product rule one at a time; gathering
    # each generator's 40,320 rows into a dict to transpose its columns
    # took this command to 52 MB.
    peak_kb = child_peak_kb("dim", "--algebra", "nilcoxeter", "-n", "8")
    assert peak_kb < 46 * 1024, f"peak {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_commutant_nullity_n8_peak_memory():
    # dim counts the commutant's free columns; building the nullspace basis
    # only to count it took this command to 63 MB.
    peak_kb = child_peak_kb("dim", "--algebra", "0-hecke", "-n", "8")
    assert peak_kb < 52 * 1024, f"peak {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("algebra", ["nilcoxeter", "0-hecke", "group"])
def test_dim_n8_peak_memory(algebra):
    # Both routes rank their rows of at most two entries by a union-find
    # held in two lists of n! entries: about 25 MB in all.  The echelon of
    # the same rows took this command to 36-48 MB.
    peak_kb = child_peak_kb("dim", "--algebra", algebra, "-n", "8")
    assert peak_kb < 30 * 1024, f"peak {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_class_report_n8_peak_memory(tmp_path):
    # The table keeps no one-line words and no inverse, the report holds the
    # word lists themselves, and the writer holds about 64 k characters at a
    # time: 32.2 MB.  Building the inverse with the table took this command
    # to 34.5 MB; with one-line words and word tuples copied into the report
    # it took 49 MB, and copying the word lists alone takes it to 39.5 MB.
    # The report goes to a file, not to the StringIO that would hold its
    # 8.1 MB text.
    target = tmp_path / "classes.json"
    peak_kb = child_peak_kb(
        "classes", "--algebra", "0-hecke", "-n", "8", "--format", "json", "--output", str(target)
    )
    assert peak_kb < 36 * 1024, f"peak {peak_kb / 1024:.1f} MB"
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == CLASSES_N8_JSON_SHA256["0-hecke"]


# strings with quotes, backslashes, control characters, non-ASCII and
# astral characters, which json escapes
json_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x7f\u00e9\u2028\U0001f600'))
)
json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: (
        st.lists(inner)
        | st.lists(st.integers())
        | st.lists(st.lists(st.integers()))
        | st.dictionaries(json_text, inner)
    ),
    max_leaves=40,
)


def write_json(payload) -> str:
    handle = io.StringIO()
    _write_json(payload, handle)
    return handle.getvalue()


# A list of lists of ints goes through the C encoder 256 inner lists at a
# time; the rest of the payload, and any list of lists with an empty list or
# anything but exact ints among them, is written part by part.
@given(json_payloads)
@example([[1, 2], [True], [], [-3, False], [[4]], ["5"]])
@example([[i, -i - 1] for i in range(256)])
@example({"members": [[i % 7 + 1] * (i % 5 + 1) for i in range(257)]})
@example([[[i, 2 * i], [i + 1]] for i in range(3)] + [[[j] for j in range(600)]])
@example([[1, 2], [], [3]])
@example([[1, True], [2]])
@example([[1, [2]]])
@example([[-1, 2**64, -(2**70)], [0, 10**30]])
@settings(max_examples=300, deadline=None)
def test_render_json_matches_json_dumps(payload):
    assert write_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_int_lists_without_the_c_encoder():
    # with the C encoder unavailable json falls back to its pure-Python
    # encoder, which must give the same bytes
    payload = {
        "words": [[i % 7 + 1] * (i % 5 + 1) for i in range(600)],
        "wide": [[-1, 2**64, -(2**70)], [0]],
    }
    want = json.dumps(payload, indent=2) + "\n"
    with mock.patch("json.encoder.c_make_encoder", None):
        assert write_json(payload) == want


@given(json_payloads, st.sampled_from([1, 64]))
@example({"s": "x" * 200, "words": [[1, 2, 3]] * 300}, 64)
@settings(max_examples=100, deadline=None)
def test_write_json_in_chunks_matches_render_json(payload, chunk_chars):
    # a write after every part and after every 64 characters give the bytes
    # of the default budget, also where one part is longer than the budget
    want = write_json(payload)
    with mock.patch.object(cli, "_JSON_CHUNK_CHARS", chunk_chars):
        assert write_json(payload) == want


@pytest.mark.parametrize(
    "payload",
    [
        1.5,
        (1, 2),
        Fraction(1, 2),
        {"a": [1, 2.0]},
        {1: 2},
        [[1, 2], [3, 2.0]],
        [[1], (2,)],
        [[1, (2,)]],
        [[1, 2]] * 300 + [[3, (4,)]],
    ],
)
def test_render_json_rejects_other_types(payload):
    with pytest.raises(TypeError):
        write_json(payload)
