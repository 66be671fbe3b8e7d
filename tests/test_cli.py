"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgh
from pgh import catalog, cli
from pgh.pcp import AbelianSection, PcPresentation

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def read_scripts_table(text):
    """The [project.scripts] table of a pyproject.toml, read line by line
    (the fallback for Python 3.10, which has no tomllib)."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, value = line.split("=", 1)
            scripts[name.strip().strip("\"'")] = value.strip().strip("\"'")
    return scripts


def declared_scripts():
    """The console scripts pyproject.toml declares, without installing."""
    text = PYPROJECT.read_text()
    scripts = read_scripts_table(text)
    if importlib.util.find_spec("tomllib"):
        # Holds the line reader to the real TOML parser wherever one exists.
        import tomllib
        assert scripts == tomllib.loads(text)["project"]["scripts"]
    return scripts


def module_env():
    """The environment in which `python -m pgh` imports this package."""
    path = [str(Path(pgh.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_module(*argv, cwd, timeout=None):
    """Run `python -m pgh` as a separate process on the imported package."""
    return subprocess.run([sys.executable, "-m", "pgh", *argv],
                          capture_output=True, env=module_env(), cwd=cwd,
                          timeout=timeout)


def test_group_family():
    code, out = run_cli("group", "--family", "G2", "--p", "3", "--m", "2")
    assert code == 0
    assert "order: 243" in out
    assert "quotient: [9, 9]" in out


def test_group_file(tmp_path):
    path = tmp_path / "g5.json"
    path.write_text(catalog.serialize(catalog.g5(3)))
    code, out = run_cli("group", "--file", str(path))
    assert code == 0
    assert "n: 6" in out and "k: 3" in out and "d: 3" in out


def test_group_bad_params_exit_2():
    code, _ = run_cli("group", "--family", "G6", "--p", "5")
    assert code == 2


def test_group_requires_one_source():
    code, _ = run_cli("group", "--family", "G2", "--p", "3", "--m", "2",
                      "--file", "x.json")
    assert code == 2


def test_group_missing_file_exit_2(tmp_path):
    code, _ = run_cli("group", "--file", str(tmp_path / "none.json"))
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_group_unreadable_file_exit_2(kind, tmp_path):
    path = tmp_path / "group.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00")
    proc = run_module("group", "--file", str(path), cwd=tmp_path, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_multiplier_json():
    code, out = run_cli("multiplier", "--family", "G2", "--p", "3",
                        "--m", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplier"] == [3, 3, 3]


def test_capable_true_false():
    code, out = run_cli("capable", "--family", "E1", "--p", "3")
    assert code == 0 and "capable: true" in out
    code, out = run_cli("capable", "--family", "Q8", "--p", "2")
    assert code == 0 and "capable: false" in out
    assert "epicenter_order: 2" in out


def test_bounds_values_and_errors():
    code, out = run_cli("bounds", "--n", "7", "--k", "4", "--d", "3")
    assert code == 0 and "bounds.rai: 10" in out
    code, _ = run_cli("bounds", "--n", "3", "--k", "5", "--d", "1")
    assert code == 2


def test_bounds_half_integral_exponent():
    code, out = run_cli("bounds", "--n", "4", "--k", "1", "--d", "2")
    assert code == 0
    assert "bounds.niroomand: 4\nbounds.rai: 2.5\n" in out


def test_bounds_csv_deterministic():
    _, a = run_cli("bounds", "--n", "6", "--k", "3", "--d", "3",
                   "--format", "csv")
    _, b = run_cli("bounds", "--n", "6", "--k", "3", "--d", "3",
                   "--format", "csv")
    assert a == b
    assert a.splitlines()[0] == "n,k,d,bounds.green,bounds.niroomand,bounds.rai"
    assert a.splitlines()[1] == "6,3,3,15,8,8"


def test_verify_sweep_suite():
    code, out = run_cli("verify", "--suite", "sweep", "--p", "3")
    assert code == 0
    assert "sweep_attainers_equal_classified_families" in out
    assert "0 failed" in out


def test_verify_capability_suite_csv():
    code, out = run_cli("verify", "--suite", "capability", "--p", "3",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,pass,detail"
    assert all(",true," in line or line.endswith(",true")
               or ",true" in line for line in lines[1:])


def test_verify_json_deterministic():
    _, a = run_cli("verify", "--suite", "homology", "--p", "3",
                   "--format", "json")
    _, b = run_cli("verify", "--suite", "homology", "--p", "3",
                   "--format", "json")
    assert a == b
    doc = json.loads(a)
    assert doc["failed"] == 0


def test_verify_bad_prime():
    code, _ = run_cli("verify", "--suite", "sweep", "--p", "7")
    assert code == 2


def readme_cli_commands():
    """The `pgh ...` lines of README's CLI block, as argument lists."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("pgh ")]


def test_readme_cli_commands_exit_0():
    commands = [argv for argv in readme_cli_commands()
                if "--file" not in argv]     # its file is the reader's own
    assert len(commands) >= 5
    for argv in commands:
        code, out = run_cli(*argv)
        assert code == 0, argv
        assert out


def test_readme_library_example_gives_its_comments():
    # each expression line gives the value written in its comment
    section = README.read_text().split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        assert eval(expr, namespace) == eval(comment), line
        checked += 1
    assert checked == 3


def test_entry_point_installed(tmp_path):
    entry = importlib.metadata.EntryPoint(
        name="pgh", value=declared_scripts()["pgh"], group="console_scripts")
    assert entry.load() is cli.main
    argv = ("bounds", "--n", "3", "--k", "1", "--d", "2")
    proc = run_module(*argv, cwd=tmp_path)
    assert proc.returncode == 0
    assert "bounds.rai: 2" in proc.stdout.decode()
    assert proc.stdout == run_cli(*argv)[1].encode()
    assert run_module("bounds", "--n", "3", "--k", "5", "--d", "1",
                      cwd=tmp_path).returncode == 2


def test_verify_jobs_flag_is_a_usage_error(tmp_path):
    # the sweep is serial; the parser rejects --jobs before any work
    proc = run_module("verify", "--suite", "sweep", "--p", "3", "--jobs", "2",
                      cwd=tmp_path, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"unrecognized arguments: --jobs 2" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exit_2(jobs, capsys):
    # no --jobs value is special any more: the parser rejects the flag
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "sweep", "--p", "3", "--jobs", jobs)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: --jobs {jobs}\n" in err


def test_verify_collector_work_is_pinned_and_not_reused_across_runs(
        monkeypatch):
    # One run builds each distinct presentation once and computes its
    # invariants once.  Same rule as the gates in test_pcp.py: a change
    # that moves the count updates it here and says why in CHANGES.md.  A
    # second identical run repeats all of the work, so nothing survives a
    # run.
    calls = [0]
    collect_into = PcPresentation._collect_into

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return collect_into(self, *args, **kwargs)

    monkeypatch.setattr(PcPresentation, "_collect_into", counting)
    argv = ("verify", "--suite", "all", "--p", "3", "--deep", "--format",
            "json")
    runs = []
    for _ in range(2):
        calls[0] = 0
        runs.append((run_cli(*argv), calls[0]))
    (code, out), count = runs[0]
    assert code == 0 and json.loads(out)["failed"] == 0
    # 25,143 since the Smith form is taken mod p^e: its V gives other
    # stem covers, whose consistency checks collect 2 fewer words.  24,835
    # since family_match fingerprints P only for a candidate that needs it.
    # 24,513 since tails_system skips the assoc tests of two central
    # letters, whose relation rows are zero.  22,165 since it collects only
    # the tests among g_1 ... g_c and reads the others' rows off the rules.
    # 21,885 since is_consistent skips the assoc tests whose three rule
    # words lie in the central block, which always hold.  21,457 since
    # the epicenter is stored on P, so the report and the crosscheck share
    # the variant-0 one (274 fewer), and central_quotient_section is, so
    # psi2_image and psi3_image share one section (150 fewer), and the
    # epicenter of the non-capable family is compared with G' by ==,
    # which tests one containment after the leading indices (4 fewer).
    # 20,169 since the epicenter and be_sequence read commutators off the
    # tails, two tailed collections each, in place of building the
    # variant-0 cover and collecting in it (3,550 fewer untailed and 2,328
    # more tailed calls), and the variants share one Z(G) section (66 fewer)
    # 18,647 since every section is stored on P by its bases, so no section
    # is built, and no representative or coordinate is collected, twice.
    # 18,304 since d(G/Z) in class 2 is the rank of the stored G/Z section,
    # so no quotient presentation G/Z is built and checked for it.
    # 18,014 since a power_self test of is_consistent collects only
    # w_i g_i, not g_i^p and g_i w_i too, and nothing for an empty w_i.
    assert count == 18014
    assert runs[1] == runs[0]


def test_verify_builds_each_abelian_section_once(monkeypatch):
    # A section is stored on P under the bases of N and M, so a run builds
    # one per distinct (P, N basis, M basis).  The presentations are kept
    # alive so that no id is reused within the count.
    builds = []
    init = AbelianSection.__init__

    def counting(self, P, N, M=None):
        builds.append((P, N.basis, () if M is None else M.basis))
        return init(self, P, N, M)

    monkeypatch.setattr(AbelianSection, "__init__", counting)
    for p in ("2", "3", "5"):
        code, out = run_cli("verify", "--suite", "all", "--p", p, "--deep",
                            "--format", "json")
        assert code == 0 and json.loads(out)["failed"] == 0
    keys = {(id(P), n, m) for P, n, m in builds}
    assert len(keys) == len(builds)
    # 266 before the sections were stored on P
    assert len(builds) == 120


@pytest.mark.parametrize("argv", [
    ("group", "--family", "E1", "--p", "3"),
    ("multiplier", "--family", "E1", "--p", "3"),
    ("capable", "--family", "E1", "--p", "3"),
    ("bounds", "--n", "3", "--k", "1", "--d", "2"),
])
def test_verbose_is_a_usage_error_outside_verify(argv, capsys):
    # only verify reads --verbose; the parser rejects it elsewhere
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--verbose")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --verbose\n" in err


def test_verify_verbose_prints_every_detail():
    # --verbose gives each passing check its detail too, as the json has it
    code, out = run_cli("verify", "--suite", "homology", "--p", "3",
                        "--verbose")
    _, doc = run_cli("verify", "--suite", "homology", "--p", "3",
                     "--format", "json")
    checks = json.loads(doc)["checks"]
    assert code == 0 and all(c["pass"] and c["detail"] for c in checks)
    assert out.splitlines() == [
        f"PASS {c['name']}  ({c['detail']})" for c in checks
    ] + [f"{len(checks)} passed, 0 failed"]


GROUP_G4_14 = ("group", "--family", "G4", "--p", "3", "--m", "14")
BOUNDS = ("bounds", "--n", "3", "--k", "1", "--d", "2")


def run_into_pipe(argv, unbuffered, read_first):
    """Run `python -m pgh argv` into a pipe whose reader closes its end,
    after reading one byte or before pgh writes anything; returns the
    exit code and stderr."""
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_fd, write_fd = os.pipe()
    if read_first:
        # a pipe of one page, so pgh is still writing when the reader goes
        import fcntl
        size = fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        assert 4 * size < len(run_cli(*argv)[1])
    else:
        os.close(read_fd)
    proc = subprocess.Popen([sys.executable, "-m", "pgh", *argv],
                            stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    if read_first:
        assert len(os.read(read_fd, 1)) == 1
        os.close(read_fd)
    stderr = proc.communicate(timeout=60)[1].decode()
    return proc.returncode, stderr


@pytest.mark.parametrize("argv,unbuffered,read_first", [
    # `pgh group ... | head -c 1`: a write fails part way through
    pytest.param(GROUP_G4_14, False, True, marks=pytest.mark.skipif(
        not hasattr(__import__("fcntl"), "F_SETPIPE_SZ"),
        reason="needs a pipe whose size can be set")),
    # the output fits the buffer, so only the final flush fails
    (BOUNDS, False, False),
    # every write goes straight to the pipe.  Closing the reader cuts an
    # unbuffered write short without an error, so the reader closes first.
    (GROUP_G4_14, True, False),
], ids=["buffered-after-one-byte", "buffered-flush", "unbuffered-write"])
def test_reader_closing_stdout_gives_no_traceback(argv, unbuffered,
                                                  read_first):
    code, stderr = run_into_pipe(argv, unbuffered, read_first)
    assert code == cli.EXIT_BROKEN_PIPE
    assert stderr == ""


MALFORMED = {
    "labels_key": {"p": 3, "ngens": 1, "labels": {"a": "x"}},
    "string_parameter": {"family": "G2", "p": 3, "m": "2"},
    "composite_p": {"family": "G2", "p": 4, "m": 2},
    "power_list": {"p": 3, "ngens": 2, "power": [[2, 1]]},
    "negative_ngens": {"p": 3, "ngens": -1},
    "large_prime_p": {"p": 10 ** 30 + 57, "ngens": 1},
    "large_prime_family_p": {"family": "E1", "p": 10 ** 30 + 57},
    "huge_p": {"p": 10 ** 400, "ngens": 1},
    "huge_ngens": {"p": 3, "ngens": 100000},
    "huge_family_m": {"family": "G2", "p": 3, "m": 2000},
    "huge_family_exponent": {"family": "HOMOCYCLIC", "p": 3, "m": 1000000000,
                             "rank": 1},
    "boolean_ngens": {"p": 2, "ngens": True},
    "boolean_exponent": {"p": 3, "ngens": 2, "power": {"1": [[2, True]]}},
    "boolean_family_m": {"family": "HOMOCYCLIC", "p": 3, "m": True, "rank": 2},
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED)
def test_multiplier_malformed_file_exit_2(doc, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    proc = run_module("multiplier", "--file", str(path), cwd=tmp_path,
                      timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# -- fuzzing `group --file` ---------------------------------------------

# Any JSON value, and documents built from the real keys.  Sizes stay small
# (at most 9 generators or family parameter 9) or jump to values the limits
# must reject at once; primes above 100 are not drawn, because collection is
# still linear in p (CHANGES.md, FOUND).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=5), kids, max_size=3)),
    max_leaves=10)
huge = st.sampled_from([1000, 10 ** 9, -10 ** 9, 10 ** 30 + 57, 10 ** 400])
wrong = st.one_of(huge, json_values)


def mostly(good, bad):
    """Draws from `good` three times in four."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda s: s)


primes = mostly(st.sampled_from([2, 3, 5, 7, 11]),
                st.one_of(st.integers(-10, 100), wrong))
small = mostly(st.integers(-2, 9), wrong)
index = st.integers(-1, 10)
pair = st.tuples(index, st.integers(-2, 12)).map(list)
word = mostly(st.lists(mostly(pair, json_values), max_size=3), json_values)
key = mostly(index.map(str), st.text(max_size=4))
pair_key = mostly(st.tuples(index, index).map("{0[0]},{0[1]}".format),
                  st.text(max_size=4))
presentation_docs = st.fixed_dictionaries(
    {"p": primes, "ngens": small},
    optional={
        "power": mostly(st.dictionaries(key, word, max_size=4), json_values),
        "comm": mostly(st.dictionaries(pair_key, word, max_size=6),
                       json_values),
        "labels": mostly(st.dictionaries(key, json_values, max_size=3),
                         json_values),
    })


def family_params(name):
    row = catalog.FAMILIES.get(name.upper())
    return row.params if row else ()


family_names = mostly(
    st.sampled_from(sorted(catalog.FAMILIES)),
    st.one_of(st.sampled_from(sorted(catalog.FAMILIES)).map(str.lower),
              st.text(max_size=6)))
family_docs = family_names.flatmap(lambda name: mostly(
    # the family's own parameters
    st.fixed_dictionaries(
        {"family": st.just(name), "p": primes,
         **{k: small for k in family_params(name)}}),
    # any subset of the known parameters, and a stray key
    st.fixed_dictionaries(
        {"family": st.just(name), "p": primes},
        optional={**{k: small for k in ("m", "n", "rank", "exponent", "index")},
                  "other": json_values})))
documents = mostly(
    st.one_of(presentation_docs, family_docs).map(json.dumps),
    st.one_of(json_values.map(json.dumps), st.text(max_size=20)))

# seconds one document may take before the test fails as a hang
FUZZ_BUDGET_S = 20


class Hang(Exception):
    pass


def _hang(signum, frame):
    raise Hang(f"group --file took more than {FUZZ_BUDGET_S} s")


@settings(max_examples=300, deadline=None)
@given(documents)
def test_group_file_fuzz_exits_0_or_2(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.setitimer(signal.ITIMER_REAL, FUZZ_BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["group", "--file", path])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.slow
def test_verify_all_p3_deep():
    code, out = run_cli("verify", "--suite", "all", "--p", "3", "--deep")
    assert code == 0
    assert "0 failed" in out
