"""The one coalition text format: every malformed file is a named error, every valid one round-trips."""

from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import FileFormatError
from polyshap.frontier import InteractionFrontier, load_frontier, percent_of_order, save_frontier
from polyshap.games import (
    dump_lookup_file,
    load_lookup_game,
    load_mobius_game,
    make_random_game,
    save_mobius_game,
)
from polyshap.sampling import SamplerConfig, load_batch, sample, save_batch


@dataclass(frozen=True)
class Format:
    suffix: str
    write: Callable[[str, int], None]  # (path, seed): writes a valid file
    load: Callable[[str], object]
    resave: Callable[[object, str], None]  # writes a loaded object back
    n_fields: int
    required_header: tuple[str, ...]  # prefixes of the header lines the loader needs
    bad_header: tuple[str, ...] = ()  # header lines the loader must reject, each replacing its key's line


def _write_batch(path, seed):
    game = make_random_game(6, 2, 10, seed=seed)
    save_batch(sample(SamplerConfig(budget_m=30 + seed % 5, paired=seed % 2 == 0, seed=seed), game), path)


FORMATS = {
    "mobius": Format(
        ".mobius",
        lambda path, seed: save_mobius_game(make_random_game(6, 3, 12, seed=seed), path),
        load_mobius_game,
        save_mobius_game,
        1,
        ("d=",),
    ),
    "lookup": Format(
        ".game",
        lambda path, seed: dump_lookup_file(make_random_game(4, 2, 6, seed=seed), path),
        load_lookup_game,
        dump_lookup_file,
        1,
        ("d=",),
    ),
    "batch": Format(
        ".csv",
        _write_batch,
        load_batch,
        save_batch,
        2,
        ("# d=", "# nu_empty=", "# nu_full=", "# enumerated_sizes=", "# odd_unpaired="),
        ("# enumerated_sizes=0,99", "# enumerated_sizes=6", "# enumerated_sizes=-1,2", "# odd_unpaired=7"),
    ),
    "frontier": Format(
        ".txt",
        lambda path, seed: save_frontier(percent_of_order(6, 3, 0.5, seed=seed), path),
        load_frontier,
        save_frontier,
        0,
        ("d=",),
    ),
}

NOT_A_NUMBER = ["abc", "1.2.3", "", "0x1f", "--1", "1e", "one", "1 2"]
NOT_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e400"]
NOT_A_BIT = "2x-."

MUTATIONS = [
    (name, kind)
    for name, fmt in FORMATS.items()
    for kind in (
        "drop_field", "length", "character", "non_numeric", "non_finite", "drop_header", "duplicate",
        "bad_header",
    )
    if (kind not in ("drop_field", "non_finite") or fmt.n_fields)
    and (kind != "drop_header" or fmt.required_header)
    and (kind != "bad_header" or fmt.bad_header)
]


@pytest.fixture(scope="module")
def valid_text(tmp_path_factory):
    out = {}
    for name, fmt in FORMATS.items():
        path = tmp_path_factory.mktemp("valid") / f"valid{fmt.suffix}"
        fmt.write(str(path), 1)
        out[name] = path.read_text()
    return out


def mutate(lines, rows, kind, data, fmt):
    """Apply one mutation in place; return the 1-based line the error must name, or None."""
    i = data.draw(st.sampled_from(rows))
    bits, *fields = lines[i].split(",")
    if kind == "drop_field":
        lines[i] = ",".join([bits, *fields[:-1]])
    elif kind == "length":
        lines[i] = ",".join([bits + "0" if data.draw(st.booleans()) else bits[:-1], *fields])
    elif kind == "character":
        pos = data.draw(st.integers(0, len(bits) - 1))
        bits = bits[:pos] + data.draw(st.sampled_from(NOT_A_BIT)) + bits[pos + 1 :]
        lines[i] = ",".join([bits, *fields])
    elif kind == "non_numeric":
        token = data.draw(st.sampled_from(NOT_A_NUMBER))
        if fields:
            fields[data.draw(st.integers(0, len(fields) - 1))] = token
        else:
            fields = [token]
        lines[i] = ",".join([bits, *fields])
    elif kind == "non_finite":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(NOT_FINITE))
        lines[i] = ",".join([bits, *fields])
    elif kind == "drop_header":
        prefix = data.draw(st.sampled_from(fmt.required_header))
        lines[:] = [ln for ln in lines if not ln.startswith(prefix)]
        return None
    elif kind == "bad_header":
        bad = data.draw(st.sampled_from(fmt.bad_header))
        key = bad.partition("=")[0] + "="
        lines[:] = [bad if ln.startswith(key) else ln for ln in lines]
        return None
    elif kind == "duplicate":
        lines.insert(i + 1, lines[i])
        return i + 2
    return i + 1


class TestMutatedFilesRaiseNamedErrors:
    @pytest.mark.parametrize("name,kind", MUTATIONS)
    @settings(max_examples=15)
    @given(data=st.data())
    def test_mutation(self, valid_text, tmp_path_factory, name, kind, data):
        fmt = FORMATS[name]
        lines = valid_text[name].splitlines()
        rows = [i for i, ln in enumerate(lines) if ln[:1] in ("0", "1")]
        expected_line = mutate(lines, rows, kind, data, fmt)
        path = str(tmp_path_factory.getbasetemp() / f"mutated{fmt.suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            fmt.load(path)
        assert err.value.path == path
        assert err.value.line == expected_line
        where = path if expected_line is None else f"{path}:{expected_line}"
        assert str(err.value).startswith(where + ": ")

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_every_required_header_line_is_required(self, valid_text, tmp_path, name):
        fmt = FORMATS[name]
        path = str(tmp_path / f"dropped{fmt.suffix}")
        for prefix in fmt.required_header:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(ln + "\n" for ln in valid_text[name].splitlines() if not ln.startswith(prefix))
            with pytest.raises(FileFormatError) as err:
                fmt.load(path)
            assert err.value.line is None, prefix

    def test_unreadable_file(self, tmp_path):
        path = str(tmp_path / "missing.game")
        with pytest.raises(FileFormatError, match="missing.game: cannot read file"):
            load_lookup_game(path)

    def test_headerless_empty_file_needs_d(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty.txt: expected header 'd=<int>' before the rows"):
            load_frontier(str(path))

    def test_header_after_rows(self, tmp_path):
        path = tmp_path / "late.game"
        path.write_text("d=2\n00,0.0\nd=3\n")
        with pytest.raises(FileFormatError, match="late.game:3: header line"):
            load_lookup_game(str(path))

    def test_singleton_frontier_term_names_file(self, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("d=4\n1100\n0100\n")
        with pytest.raises(FileFormatError, match="single.txt: interaction terms must have size >= 2"):
            load_frontier(str(path))


class TestFrontierHeader:
    def one_row_file(self, tmp_path):
        path = tmp_path / "one.txt"
        save_frontier(InteractionFrontier(4, (0b0011,)), str(path))
        assert path.read_text() == "d=4\n1100\n"
        return path

    def test_truncated_one_row_file_raises(self, tmp_path):
        path = self.one_row_file(tmp_path)
        path.write_text("d=4\n110\n")
        with pytest.raises(FileFormatError, match="one.txt:2: bitstring '110' has 3 players, expected d=4"):
            load_frontier(str(path))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    @settings(max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, name, seed):
        fmt = FORMATS[name]
        base = tmp_path_factory.getbasetemp()
        first, second = str(base / f"first{fmt.suffix}"), str(base / f"second{fmt.suffix}")
        fmt.write(first, seed)
        fmt.resave(fmt.load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
