"""The package's public names: each module's __all__ is the only list of them.
The package loads its modules on first use, and its records are immutable."""

import ast
import copy
import itertools
import os
import pickle
import subprocess
import sys

import pytest

import stasinv
from stasinv import (EncodedStream, FitResult, IntegrityFinding, InvariantReport, SampleSeries,
                     SplitMix64, StasError, StasParams, encode_stream, sample_series)
from stasinv.codec import dump_sig1, dump_stasc1
from stasinv.core import _Record
from stasinv.reconstruct import Window

PUBLIC = {
    "StasParams", "SampleSeries", "InvariantReport",
    "eval_f", "eval_s", "invariant_ratio", "closed_form_invariant",
    "seq_a", "recurrence_next", "four_term_residual",
    "sample_series", "estimate_invariant",
    "Window", "recover_missing", "predict_next",
    "EncodedStream", "IntegrityFinding",
    "encode_stream", "decode_stream", "detect_errors", "repair_samples",
    "dump_sig1", "load_sig1", "dump_stasc1", "load_stasc1",
    "FitResult", "disambiguate_p", "fit_trig",
    "search_frequencies", "fit_series",
    "SplitMix64",
    "StasError", "DomainError", "SingularWindow", "NoValidWindows",
    "DegenerateParameter", "ContractViolation", "IdentityViolation",
    "FormatError", "IllConditioned",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def fresh_modules(code: str, *args: str, flags: tuple[str, ...] = ()) -> list[list[str]]:
    """Run code in a new interpreter, started with the given flags, that imports
    stasinv from this checkout's src/; every `report()` in it records the names in
    sys.modules, and the records come back in order."""
    prelude = "import sys\ndef report():\n    print('MODULES', *sorted(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, *flags, "-c", prelude + code, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [line.split()[1:] for line in out.splitlines() if line.startswith("MODULES ")]


def test_exports_exactly_the_public_names():
    assert len(stasinv.__all__) == len(PUBLIC) == 40
    assert set(stasinv.__all__) == PUBLIC
    for name in stasinv.__all__:
        assert getattr(stasinv, name) is not None


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from stasinv import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stasinv.no_such_name
    assert not hasattr(stasinv, "no_such_name")


def test_import_loads_no_submodule():
    (loaded,) = fresh_modules("import stasinv\nreport()")
    assert "stasinv" in loaded
    assert [name for name in loaded if name.startswith("stasinv.")] == []


def test_submodule_name_loads_that_module_alone():
    (loaded,) = fresh_modules("from stasinv import errors\nreport()")
    assert [name for name in loaded if name.startswith("stasinv.")] == ["stasinv.errors"]


HEAVY = {"dataclasses", "fractions", "decimal", "statistics", "inspect", "stasinv.estimator"}


def test_verify_loads_no_heavy_module_and_fit_loads_the_estimator(tmp_path):
    """Start-up guard: `verify` runs without the modules that dominated start-up
    time; `fit` loads the estimator on demand."""
    series = sample_series(StasParams(p=0.9, q1=0.5, q2=0.25, r1=3, r2=5), 0.5, 64, step=0.125)
    path = tmp_path / "in.sig"
    path.write_text(dump_sig1(series))
    after_verify, after_fit = fresh_modules(
        "from stasinv import cli\n"
        "cli.main(['verify', '--trials', '1'])\nreport()\n"
        "cli.main(['fit', '--input', sys.argv[1]])\nreport()", str(path))
    assert HEAVY.isdisjoint(after_verify)
    assert "stasinv.estimator" in after_fit


def test_estimating_commands_load_no_statistics(tmp_path):
    """Start-up guard: check --estimate, encode --estimate and fit take their
    medians without statistics, which loads fractions and decimal."""
    unit, dense = tmp_path / "unit.sig", tmp_path / "dense.sig"
    unit.write_text(dump_sig1(sample_series(StasParams(p=0.5, q2=1), 1.0, 16)))
    dense.write_text(dump_sig1(sample_series(StasParams(p=0.9, q1=0.5, q2=0.25, r1=3, r2=5),
                                             0.5, 64, step=0.125)))
    (loaded,) = fresh_modules(
        "from stasinv import cli\n"
        "assert cli.main(['check', '--estimate', '--input', sys.argv[1]]) == 0\n"
        "assert cli.main(['encode', '--estimate', '--input', sys.argv[1],"
        " '--output', sys.argv[1] + '.stasc1']) == 0\n"
        "assert cli.main(['fit', '--input', sys.argv[2]]) == 0\nreport()", str(unit), str(dense))
    assert {"statistics", "fractions", "decimal"}.isdisjoint(loaded)
    assert "stasinv.estimator" in loaded


CODEC = {"stasinv.codec", "stasinv.reconstruct"}


def test_only_verify_loads_the_rng(tmp_path):
    """Start-up guard: the file commands and every --help run without stasinv.rng;
    verify, which draws its trials from it, loads it."""
    unit, dense = tmp_path / "unit.sig", tmp_path / "dense.sig"
    unit.write_text(dump_sig1(sample_series(StasParams(p=0.5, q2=1), 1.0, 16)))
    dense.write_text(dump_sig1(sample_series(StasParams(p=0.9, q1=0.5, q2=0.25, r1=3, r2=5),
                                             0.5, 64, step=0.125)))
    commands = ("eval", "invariant", "table", "verify", "encode", "decode", "check", "fit")
    after_files, after_help, after_verify = fresh_modules(
        "from stasinv import cli\n"
        "src, enc, dec = sys.argv[1], sys.argv[1] + '.stasc1', sys.argv[1] + '.sig1'\n"
        "assert cli.main(['check', '--estimate', '--input', src]) == 0\n"
        "assert cli.main(['encode', '--estimate', '--input', src, '--output', enc]) == 0\n"
        "assert cli.main(['decode', '--input', enc, '--output', dec]) == 0\n"
        "assert cli.main(['fit', '--input', sys.argv[2]]) == 0\nreport()\n"
        f"for command in {commands!r}:\n"
        "    try:\n"
        "        cli.main([command, '--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "report()\n"
        "cli.main(['verify', '--trials', '1'])\nreport()", str(unit), str(dense))
    assert "stasinv.rng" not in after_files
    assert "stasinv.rng" not in after_help
    assert "stasinv.rng" in after_verify


def test_verify_loads_neither_array_nor_struct():
    """Start-up guard: verify unpacks its batches of draws with memoryview, so it
    loads neither array nor struct.  The interpreter starts without site (-S),
    whose .pth files may load struct themselves."""
    (loaded,) = fresh_modules("from stasinv import cli\n"
                              "cli.main(['verify', '--trials', '65'])\nreport()", flags=("-S",))
    assert "stasinv.rng" in loaded
    assert {"array", "struct", "_struct"}.isdisjoint(loaded)


def test_only_the_file_commands_load_the_codec(tmp_path):
    """Start-up guard: verify, eval, invariant, table and every --help run
    without the codec; check loads it."""
    path = tmp_path / "in.sig"
    path.write_text(dump_sig1(sample_series(StasParams(p=0.5, q2=1), 1.0, 8)))
    commands = ("eval", "invariant", "table", "verify", "encode", "decode", "check", "fit")
    after_run, after_help, after_check = fresh_modules(
        "from stasinv import cli\n"
        "cli.main(['verify', '--trials', '1'])\n"
        "cli.main(['eval', '--p', '0.5,0', '--t', '1'])\n"
        "cli.main(['invariant', '--p', '0.5,0'])\n"
        "cli.main(['table', '--n-max', '4'])\nreport()\n"
        f"for command in {commands!r}:\n"
        "    try:\n"
        "        cli.main([command, '--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "report()\n"
        "cli.main(['check', '--p', '0.5,0', '--input', sys.argv[1]])\nreport()", str(path))
    assert CODEC.isdisjoint(after_run)
    assert CODEC.isdisjoint(after_help)
    assert "stasinv.codec" in after_check


def test_decode_loads_no_window_kernel_and_a_clean_check_no_reconstruct(tmp_path):
    """Start-up guard: decode runs without the window kernel (stasinv._windows); a
    clean check or encode runs without stasinv.reconstruct, which decode and a repair
    load."""
    series = sample_series(StasParams(p=0.5, q2=1), 1.0, 16)
    src, enc, bad = tmp_path / "in.sig", tmp_path / "in.stasc1", tmp_path / "bad.sig"
    src.write_text(dump_sig1(series))
    enc.write_text(dump_stasc1(encode_stream(series, 4.0)))
    bad.write_text(dump_sig1(SampleSeries(1.0, series.values[:8] + (9,) + series.values[9:])))
    (after_decode,) = fresh_modules(
        "from stasinv import cli\n"
        "assert cli.main(['decode', '--input', sys.argv[1], '--output', sys.argv[1] + '.sig'])"
        " == 0\nreport()", str(enc))
    after_checks, after_repair = fresh_modules(
        "from stasinv import cli\n"
        "assert cli.main(['check', '--estimate', '--input', sys.argv[1]]) == 0\n"
        "assert cli.main(['encode', '--estimate', '--input', sys.argv[1],"
        " '--output', sys.argv[1] + '.stasc1']) == 0\nreport()\n"
        "assert cli.main(['check', '--p', '0.5,0', '--repair', '--input', sys.argv[2],"
        " '--output', sys.argv[2] + '.out']) == 1\nreport()", str(src), str(bad))
    assert "stasinv.reconstruct" in after_decode and "stasinv._windows" not in after_decode
    assert "stasinv._windows" in after_checks and "stasinv.reconstruct" not in after_checks
    assert "stasinv.reconstruct" in after_repair


def test_per_sample_text_helpers_are_never_traced(monkeypatch):
    """Trace guard: perfbench's tracer wraps every public function of core and
    codec, so a public per-sample helper would add one span per sample to
    load_sig1.  The span count must not grow with the input."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced
    from stasinv import codec
    counts = []
    for n in (1000, 4000):
        text = dump_sig1(sample_series(StasParams(p=0.9, q1=0.5, r1=3), 1.0, n))
        tracer = traced.Tracer()
        with traced.instrumented(tracer):
            codec.load_sig1(text)
        counts.append(len(tracer.spans))
    assert counts[0] == counts[1]


def test_fit_stages_are_traced(monkeypatch):
    """Trace guard: perfbench's layer metrics take the spans of the fit's stages,
    which its tracer records only for public functions.  A stage that fit_series
    reaches through a private name records none, and the traced run fails."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced
    from stasinv import estimator
    series = sample_series(StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5),
                           0.1, 64, step=0.125)
    tracer = traced.Tracer()
    with traced.instrumented(tracer):
        estimator.fit_series(series, 5)
    assert {"estimator.fit_series", "core.estimate_invariant", "estimator.disambiguate_p",
            "estimator.search_frequencies", "estimator.fit_trig"} <= {s[0] for s in tracer.spans}


def test_file_command_stages_are_traced(monkeypatch, tmp_path):
    """Trace guard: `check --estimate` and `encode --estimate` reach the estimate and
    the sweeps through their public names, so perfbench's tracer records their spans
    instead of counting their time as cli self time."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced
    src = tmp_path / "in.sig1"
    src.write_text(dump_sig1(sample_series(StasParams(p=0.9 + 0.3j, q1=1 - 0.5j, q2=0.25,
                                                      r1=5, r2=3), 0.3, 64, step=0.125)))
    tracer = traced.Tracer()
    with traced.instrumented(tracer):
        for argv in (["check", "--estimate", "--input", str(src)],
                     ["encode", "--estimate", "--input", str(src),
                      "--output", str(tmp_path / "out.stasc1")]):
            assert traced.replay(tracer, argv, "") == (0, "")
    assert {"core.estimate_invariant", "codec.detect_errors",
            "codec.encode_stream"} <= {s[0] for s in tracer.spans}


def make_records():
    """Two equal instances of each record (built apart) and one that differs in a field."""
    p = StasParams(p=0.5, q1=1j, q2=2, r1=3, r2=5)
    report = InvariantReport(a_hat=4 + 0j, max_rel_dev=0.0, windows_used=1, windows_skipped=0)
    builders = [
        (lambda: StasParams(p=0.5, q1=1j, q2=2, r1=3, r2=5), StasParams(p=0.5, q1=1j, q2=2, r1=3)),
        (lambda: SampleSeries(0.0, (1, 2, 3, 4)), SampleSeries(0.0, (1, 2, 3, 4), step=0.5)),
        (lambda: InvariantReport(4 + 0j, 0.0, 1, 0),
         InvariantReport(a_hat=4 + 0j, max_rel_dev=0.0, windows_used=1, windows_skipped=1)),
        (lambda: EncodedStream(4 + 0j, 0.0, 5, (1, 2, 3, 5)),
         EncodedStream(a=4 + 0j, t0=0.0, count=5, stored=(1, 2, 3, 6))),
        (lambda: FitResult(p, 0.0, ((3, 5),), report),
         FitResult(params=p, residual_rms=0.0, tied_frequencies=((3, 5), (5, 3)),
                   invariant=report)),
        (lambda: Window((1, 2, None, 4), missing=2), Window((1, None, 3, 4), missing=1)),
        (lambda: IntegrityFinding(2, 0.5, (5,)), IntegrityFinding(2, 0.5, ())),
    ]
    return [(build(), build(), other) for build, other in builders]


RECORDS = make_records()
each_record = pytest.mark.parametrize("record, twin, other", RECORDS,
                                      ids=[type(r).__name__ for r, _, _ in RECORDS])


def test_every_public_class_but_errors_and_the_rng_is_a_checked_record():
    """Record guard: one record mechanism, and every record under the tests below."""
    values = [getattr(stasinv, name) for name in stasinv.__all__]
    classes = {value for value in values
               if isinstance(value, type) and not issubclass(value, StasError)} - {SplitMix64}
    assert all(issubclass(cls, _Record) for cls in classes)
    assert classes == {type(record) for record, _, _ in RECORDS}


@pytest.mark.parametrize("fields", [(2, 0.5), (2, 0.5, (5,), "flagged")])
def test_finding_refuses_a_wrong_field_count(fields):
    with pytest.raises(ValueError):
        IntegrityFinding(*fields)


@each_record
def test_record_is_immutable(record, twin, other):
    field = type(record).__slots__[0]
    for assign in (lambda: setattr(record, field, 1), lambda: setattr(record, "extra", 1),
                   lambda: delattr(record, field)):
        with pytest.raises(AttributeError):
            assign()
    assert record == twin


@each_record
def test_record_equality_and_hash_follow_the_fields(record, twin, other):
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert record != other
    assert record != tuple(getattr(record, name) for name in type(record).__slots__)


@each_record
def test_record_copies_and_pickles(record, twin, other):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


def test_private_slots_stay_out_of_the_record():
    """The report estimate_invariant returns holds its series and bound in '_' slots,
    which no field, comparison, repr, copy or pickle sees, and which start as None."""
    series = sample_series(StasParams(p=0.9 + 0.1j, q1=0.5, r1=3), 1.0, 40)
    report = stasinv.estimate_invariant(series)
    assert report._series is series and 0 < report._bound < 1e-12
    built = InvariantReport(report.a_hat, report.max_rel_dev, report.windows_used,
                            report.windows_skipped)
    assert built._series is None and built._bound is None
    assert built == report and hash(built) == hash(report) and repr(built) == repr(report)
    assert "_bound" not in repr(report) and "_series" not in repr(report)
    for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert clone == report and clone._series is None and clone._bound is None
    with pytest.raises(TypeError):
        InvariantReport(report.a_hat, 0.0, 1, 0, 0.5)
    with pytest.raises(AttributeError):
        report._bound = 0.0


def test_only_the_window_kernel_touches_the_reports_private_slots():
    """The screen's state, InvariantReport's '_' slots, is written by _windows._estimate
    and read by _windows._screened: no other module names a slot, as an attribute or a
    string, but for core's __slots__ that declares them."""
    names = InvariantReport._private
    package = os.path.join(SRC, "stasinv")
    touched = {}
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(package, module), encoding="ascii") as fh:
            tree = ast.parse(fh.read())
        declared = set()
        if module == "core.py":
            report = next(node for node in tree.body
                          if isinstance(node, ast.ClassDef) and node.name == "InvariantReport")
            slots = next(node for node in report.body if isinstance(node, ast.Assign)
                         and [ast.unparse(t) for t in node.targets] == ["__slots__"])
            declared = set(map(id, ast.walk(slots)))
        lines = [node.lineno for node in ast.walk(tree) if id(node) not in declared
                 and (isinstance(node, ast.Attribute) and node.attr in names
                      or isinstance(node, ast.Constant) and node.value in names)]
        if lines:
            touched[module] = lines
    assert list(touched) == ["_windows.py"], touched


def test_records_of_different_classes_are_never_equal():
    for (a, _, _), (b, _, _) in itertools.permutations(RECORDS, 2):
        assert a != b


def test_record_repr_is_the_dataclass_repr():
    assert repr(StasParams(p=1)) == "StasParams(p=(1+0j), q1=0j, q2=0j, r1=1, r2=1)"
    assert repr(Window((1, 2, None, 4), missing=2)) == "Window(g=(1, 2, None, 4), missing=2)"
