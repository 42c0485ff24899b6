"""Property tests for the parsers that read outside input: grid specs,
config files and serialized bench reports.

No example database is kept (`database=None`); hypothesis still caches
the constants it reads from the source under `.hypothesis/constants`,
which git ignores.  Specs are drawn at any length: `parse_grid` bounds a
grid's point count before it builds the list.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hybridseq import cli
from hybridseq import profiler as pf
from hybridseq.cli import UsageError, load_config_file, parse_grid
from hybridseq.model import ConfigError

PROPERTY = settings(database=None, deadline=None, max_examples=50,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

pad = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def grid_specs(draw):
    """A spec in one of the documented forms, with the grid it names."""
    form = draw(st.sampled_from(["single", "list", "geometric", "additive"]))
    if form == "single":
        v = draw(st.integers(1, 10**6))
        spec, grid = str(v), [v]
    elif form == "list":
        grid = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=8))
        spec = ",".join(map(str, grid))
    elif form == "geometric":
        start, factor = draw(st.integers(1, 10**4)), draw(st.integers(2, 10))
        grid = [start * factor**k for k in range(draw(st.integers(1, 8)))]
        stop = draw(st.integers(grid[-1], grid[-1] * factor - 1))
        spec = f"{start}:{stop}:x{factor}"
    else:
        start, step = draw(st.integers(1, 10**4)), draw(st.integers(1, 10**3))
        grid = [start + k * step for k in range(draw(st.integers(1, 50)))]
        stop = draw(st.integers(grid[-1], grid[-1] + step - 1))
        spec = f"{start}:{stop}:+{step}"
    return draw(pad) + spec + draw(pad), grid


@PROPERTY
@given(case=grid_specs())
def test_valid_grid_specs_give_their_grid(case):
    spec, grid = case
    assert parse_grid(spec) == grid


def test_grid_length_is_bounded_before_the_list_is_built():
    top = cli.GRID_MAX_POINTS
    assert parse_grid(f"1:{top}:+1") == list(range(1, top + 1))
    assert len(parse_grid(f"1:{2 ** (top - 1)}:x2")) == top
    for spec in (f"1:{top + 1}:+1", "1:" + "9" * 4000 + ":+1", f"1:{2 ** top}:x2",
                 ",".join(["1"] * (top + 1))):
        with pytest.raises(UsageError, match="more than"):
            parse_grid(spec)


near_specs = st.text(alphabet="0123456789,:x+- ")


@PROPERTY
@given(spec=st.one_of(st.text(), near_specs))
@example(spec="1:2000000:+1")  # past GRID_MAX_POINTS
@example(spec="1_000")  # int() reads the underscore, the grammar does not
@example(spec="\u0663")  # an Arabic-Indic digit three
def test_any_other_grid_spec_exits_2_without_a_traceback(spec, tmp_path, capsys):
    try:
        grid = parse_grid(spec)
    except UsageError:
        grid = None
    assume(grid is None)
    capsys.readouterr()
    assert cli.main(["bench", "--M", spec, "--out", str(tmp_path / "b")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@PROPERTY
@given(content=st.one_of(st.text(max_size=200), st.binary(max_size=200)))
def test_any_config_file_parses_or_exits_3(content, tmp_path, capsys):
    path = tmp_path / "cfg"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    try:
        cfg = load_config_file(str(path))
    except ConfigError:
        capsys.readouterr()
        assert cli.main(["bench", "--config", str(path), "--out", str(tmp_path / "b")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.items())
    if not content.lstrip().startswith("{" if isinstance(content, str) else b"{"):
        # the parsed pairs written back as a config file read the same
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        assert load_config_file(str(path)) == cfg


finite = st.floats(allow_nan=False, allow_infinity=False)
# the CSV holds one report a line; a reason may hold commas, not line breaks
reasons = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=40)
reports = st.builds(
    pf.CostReport,
    arch=st.sampled_from(["hybrid", "transformer_baseline"]),
    m=st.integers(0, 10**6), n=st.integers(0, 10**4), d=st.integers(1, 4096),
    layers=st.integers(1, 64), flops_analytic=finite, flops_counted=finite,
    mem_estimate=finite, wall_ms_median=finite, repeats=st.integers(0, 100),
    skipped=st.booleans(), reason=st.one_of(reasons, st.just("a, b,, c,")),
)


@pytest.mark.parametrize("write", [pf.write_reports_csv, pf.write_reports_json])
@PROPERTY
@given(rows=st.lists(reports, max_size=5))
def test_reports_round_trip(write, rows, tmp_path):
    path = str(tmp_path / "bench")
    write(rows, path)
    assert pf.read_reports(path) == [r.row() for r in rows]
